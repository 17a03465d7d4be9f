//! Kernel dispatch: scalar reference, portable lanes, AVX2 lanes, and the
//! AVX-512 IFMA kernels.
//!
//! Every element-wise loop of residue arithmetic in the engine funnels
//! through this module: the Harvey NTT butterflies in
//! [`crate::ntt::NttTable`], the Barrett/Shoup pointwise kernels in
//! [`crate::rns`], the lazy inner product under every mask sum and key
//! switch (`dot_pair`), and the per-coefficient loops of [`crate::rns`]
//! that multiply every residue by a per-limb constant — the digit split of
//! the RNS decomposition (`mul_scalar` by `q̂_i⁻¹`, then `peel_digit`), the
//! centred lift of the hybrid decomposition (`mul_scalar`, then
//! `lift_centered`), and the rounded limb drop of a modulus switch or
//! `P`-rescale, which is that same centred lift, a transform, `sub_assign`
//! and `mul_scalar` by `q_drop⁻¹` in evaluation form. Four backends exist:
//!
//! * [`SimdBackend::Scalar`] — the original loops, verbatim. This is the
//!   pinned reference: the other backends are *defined* as bit-identical
//!   to it. Never auto-selected; [`force_backend`] reaches it, and every
//!   equivalence test compares against it.
//! * [`SimdBackend::Portable`] — branch-free, lane-chunked rewrites of the
//!   same arithmetic, compiled for the target baseline (NEON on aarch64,
//!   SSE2 on x86_64).
//! * [`SimdBackend::Avx2`] — the identical lane bodies monomorphized under
//!   `#[target_feature(enable = "avx2")]`, selected at runtime via
//!   `is_x86_feature_detected!`. (`std::simd` is nightly-only; cloning
//!   `#[inline(always)]` bodies into a `target_feature` wrapper is the
//!   stable equivalent of multiversioning.)
//! * [`SimdBackend::Avx512Ifma`] — the `Avx2` lanes, except that for every
//!   limb `q < 2^50` at degree `n ≥ 16` the kernels made of residue
//!   *products* are explicit `std::arch` code on the 52-bit multiplier
//!   (the `ifma` module below): the forward and inverse NTT (Harvey's
//!   butterfly, eight per instruction), the lazy inner product
//!   (`madd52lo`/`madd52hi` into two `u64` rows, one fold per output),
//!   the pointwise products made of it (`mul_pointwise`, `fma_pointwise`:
//!   one term, one output) and the constant multiplies (`mul_scalar`,
//!   `lift_centered`: one Shoup `mul_lazy` per product) — and the packed
//!   plane layout's packer and reader, eight fields a vector (`vpermb`,
//!   AVX-512 VBMI), which the inner product and the packed plain multiply
//!   also run in registers on operands kept packed. Wider limbs and
//!   `n = 8` run the `Avx2` lanes — or, for the kernels that have no lane
//!   form, the reference loop; the packed-plane reader, four fields a
//!   vector by AVX2 byte shuffles (the `shuffle` module, which also
//!   serves `Avx2`).
//!
//! ## What the compiler vectorizes, kernel by kernel
//!
//! The lane bodies are shaped for auto-vectorization, and LLVM takes the
//! offer only where no 64×64→128-bit multiply is involved: `add_assign`,
//! `sub_assign`, `negate` and `peel_digit` (adds, shifts, compares,
//! conditional subtractions) become vector code
//! under `Portable` and `Avx2`. Everything that goes through a `u128`
//! product — the Shoup multiply of the lane **NTT butterflies**, the
//! Barrett multiply of `mul_pointwise` / `mul_scalar` / `fma_pointwise`,
//! `dot_reduce` — multiplies with scalar `mul`s, lane by lane (x86 has no
//! vector multiply with a high half below AVX-512 IFMA's 52-bit one), so
//! those lane kernels are branch-free loops at *scalar* multiply
//! throughput: `BENCH_he_ops.json`'s `ntt_avx2` is 0.82 × the forced-scalar
//! `ntt`, `ntt_simd` 0.12 ×. `lift_centered` is one Barrett multiply and
//! a few branches per coefficient with nothing for a lane form to gain,
//! so below `Avx512Ifma` every backend runs its reference loop, as every
//! backend runs the `u128` multiply-accumulate
//! of `dot_pair`. The only vector multiplies are the explicit IFMA ones.
//!
//! ## Bit-identity contract
//!
//! All four backends produce **identical bytes** on identical inputs, for
//! every modulus the engine admits. This holds by construction, not by
//! rounding luck: the kernels are pure integer arithmetic, and the lane
//! variants only replace `if x >= m { x -= m }` with the branch-free
//! `x - m·(x ≥ m)` (same value) and the Barrett `while`-correction with
//! two masked subtractions (the quotient estimate is off by at most 2, so
//! the loop never runs more than twice). The IFMA kernels take a
//! different quotient estimate (52-bit instead of 64-bit Shoup, or Shoup
//! where the reference is Barrett), so their *lazy* intermediates may
//! differ from the reference's by a multiple of `q` — but lazy
//! `[0, 2q)`/`[0, 4q)` intermediates never escape a kernel; every output
//! is the canonical residue in `[0, q)` of a mathematically fixed value.
//! The `simd_equivalence` proptests pin the contract across all presets
//! and levels.
//!
//! ## Headroom
//!
//! The lane butterflies accumulate `x + 2q - u < 4q` in a `u64`, which is
//! why NTT limbs are capped at `q < 2^61`
//! ([`crate::arith::MAX_NTT_MODULUS_BITS`]): `4q < 2^63` leaves one spare
//! bit over the Harvey minimum (`q < 2^62`) for deferred-reduction
//! experiments without changing the tables. The IFMA butterflies feed the
//! same `< 4q` values to a multiplier that reads 52 bits, so they run iff
//! `4q ≤ 2^52`, i.e. `q < 2^50` — see the `ifma` module; its other kernels
//! reuse that one gate.
//!
//! ## Overriding the backend (tests/benches)
//!
//! [`force_backend`] pins the calling **thread** to a backend; every other
//! thread keeps the process default, so a test forcing `Scalar` cannot
//! race a concurrent test forcing `Avx2`.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

use crate::arith::Modulus;

/// Which kernel implementation services this thread's element-wise loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// The original scalar loops — the pinned bit-exact reference.
    Scalar,
    /// Branch-free lane-chunked loops compiled for the target baseline.
    Portable,
    /// The lane loops monomorphized under AVX2 (x86_64, runtime-detected).
    Avx2,
    /// `Avx2` plus the explicit AVX-512 IFMA kernels — NTT, inner product,
    /// pointwise products, constant multiplies, the packed-plane packer
    /// and reader — for limbs under `2^50` (x86_64, runtime-detected:
    /// AVX-512 F, DQ, VL, IFMA, BW and VBMI).
    Avx512Ifma,
}

impl SimdBackend {
    /// Human-readable backend name (bench/report labels).
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Portable => "portable",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Avx512Ifma => "avx512ifma",
        }
    }
}

/// Clamps a requested backend to what this CPU can actually run:
/// `Avx512Ifma` falls back to `Avx2`, and `Avx2` to `Portable`, off x86_64
/// or when the CPU lacks the features.
fn clamp(requested: SimdBackend) -> SimdBackend {
    match requested {
        SimdBackend::Avx512Ifma => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512ifma")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vbmi")
            {
                return SimdBackend::Avx512Ifma;
            }
            clamp(SimdBackend::Avx2)
        }
        SimdBackend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdBackend::Avx2;
            }
            SimdBackend::Portable
        }
        other => other,
    }
}

/// The best backend this CPU supports: `Avx512Ifma`, else `Avx2`, else
/// `Portable`.
pub fn detect() -> SimdBackend {
    clamp(SimdBackend::Avx512Ifma)
}

static DETECTED: OnceLock<SimdBackend> = OnceLock::new();

thread_local! {
    static FORCED: Cell<Option<SimdBackend>> = const { Cell::new(None) };
}

/// The backend the *calling thread* will dispatch to: its
/// [`force_backend`] override if set, else the process-wide [`detect`]
/// result (computed once).
pub fn current_backend() -> SimdBackend {
    FORCED
        .with(Cell::get)
        .unwrap_or_else(|| *DETECTED.get_or_init(detect))
}

/// Pins the calling thread to a backend (`None` restores auto-detection)
/// and returns the backend now in effect. Requests are clamped to what the
/// CPU supports — see `clamp`'s rules — so forcing `Avx512Ifma` on a CPU
/// without it leaves the thread on `Avx2`, or on `Portable` without that.
///
/// The override is **per thread**: the serving pool's worker threads, which
/// each run whole sessions, keep the detected default. Intended for benches
/// and equivalence tests.
pub fn force_backend(backend: Option<SimdBackend>) -> SimdBackend {
    FORCED.with(|f| f.set(backend.map(clamp)));
    current_backend()
}

// ---------------------------------------------------------------------
// Dispatch: one `match` per kernel invocation (a whole slice, not an
// element), so steady-state cost is a predicted branch. `Avx2` and
// `Avx512Ifma` are only ever reported by `clamp` after
// `is_x86_feature_detected!` succeeded, which is what makes the `unsafe`
// calls sound.
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($name:ident($($arg:expr),* $(,)?)) => {
        dispatch!(current_backend() => $name($($arg),*))
    };
    ($backend:expr => $name:ident($($arg:expr),* $(,)?)) => {
        match $backend {
            SimdBackend::Portable => lanes::portable::$name($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `clamp` only yields `Avx2` or `Avx512Ifma` after
            // `is_x86_feature_detected!("avx2")` returned true.
            SimdBackend::Avx2 | SimdBackend::Avx512Ifma => unsafe {
                lanes::avx2::$name($($arg),*)
            },
            _ => scalar::$name($($arg),*),
        }
    };
}

/// In-place forward negacyclic NTT over SoA twiddles (natural →
/// bit-reversed). Caller guarantees `a.len()` is the table degree and
/// `op`/`quo` are the bit-reverse-scrambled `ψ` powers with their Shoup
/// quotients. Inputs canonical in `[0, q)`; outputs canonical.
pub(crate) fn ntt_forward(a: &mut [u64], op: &[u64], quo: &[u64], q: u64) {
    match current_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp` only yields `Avx512Ifma` after
        // `is_x86_feature_detected!` returned true for every feature
        // `ifma`'s kernels enable.
        SimdBackend::Avx512Ifma if ifma::admits(a.len(), q) => unsafe {
            ifma::ntt_forward(a, op, quo, q)
        },
        backend => dispatch!(backend => ntt_forward(a, op, quo, q)),
    }
}

/// In-place inverse negacyclic NTT (bit-reversed → natural), including the
/// `n^{-1}` scaling given as a Shoup pair. Same shape contract as
/// [`ntt_forward`].
pub(crate) fn ntt_inverse(
    a: &mut [u64],
    op: &[u64],
    quo: &[u64],
    q: u64,
    n_inv_op: u64,
    n_inv_quo: u64,
) {
    match current_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `ntt_forward`.
        SimdBackend::Avx512Ifma if ifma::admits(a.len(), q) => unsafe {
            ifma::ntt_inverse(a, op, quo, q, n_inv_op, n_inv_quo)
        },
        backend => dispatch!(backend => ntt_inverse(a, op, quo, q, n_inv_op, n_inv_quo)),
    }
}

/// `a[i] ← a[i] + b[i] mod q`, element-wise.
pub(crate) fn add_assign(a: &mut [u64], b: &[u64], q: &Modulus) {
    dispatch!(add_assign(a, b, q))
}

/// `a[i] ← a[i] - b[i] mod q`, element-wise.
pub(crate) fn sub_assign(a: &mut [u64], b: &[u64], q: &Modulus) {
    dispatch!(sub_assign(a, b, q))
}

/// `a[i] ← -a[i] mod q`, element-wise.
pub(crate) fn negate(a: &mut [u64], q: &Modulus) {
    dispatch!(negate(a, q))
}

/// `a[i] ← a[i]·b[i] mod q` (Barrett), element-wise. Under
/// `Avx512Ifma`, for a modulus the `ifma` kernels admit, the exact product
/// on the 52-bit multiplier, folded once.
pub(crate) fn mul_pointwise(a: &mut [u64], b: &[u64], q: &Modulus) {
    match current_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `ntt_forward`.
        SimdBackend::Avx512Ifma if ifma::admits(a.len(), q.value()) => unsafe {
            ifma::mul_pointwise(a, b, q)
        },
        backend => dispatch!(backend => mul_pointwise(a, b, q)),
    }
}

/// `a[i] ← a[i]·c mod q` (Barrett; `c` reduced once up front). The one
/// constant multiplier: under `Avx512Ifma`, for a modulus the `ifma`
/// kernels admit, a Shoup multiply by `c`'s 52-bit quotient, computed once
/// per call.
pub(crate) fn mul_scalar(a: &mut [u64], c: u64, q: &Modulus) {
    match current_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `ntt_forward`.
        SimdBackend::Avx512Ifma if ifma::admits(a.len(), q.value()) => unsafe {
            ifma::mul_scalar(a, q.reduce(c), q.value())
        },
        backend => dispatch!(backend => mul_scalar(a, c, q)),
    }
}

/// `r[i] ← r[i] + a[i]·b[i] mod q` — a one-term [`dot_pair`] for one
/// output. Under `Avx512Ifma`, for a modulus the `ifma` kernels admit,
/// `r[i]` plus the exact product on the 52-bit multiplier, folded once.
pub(crate) fn fma_pointwise(r: &mut [u64], a: &[u64], b: &[u64], q: &Modulus) {
    match current_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `ntt_forward`.
        SimdBackend::Avx512Ifma if ifma::admits(r.len(), q.value()) => unsafe {
            ifma::fma_pointwise(r, a, b, q)
        },
        backend => dispatch!(backend => fma_pointwise(r, a, b, q)),
    }
}

/// Peels the lowest base-`2^log_base` digit off every `v[i]`:
/// `low[i] ← v[i] mod 2^log_base`, `v[i] ← v[i] >> log_base` — one step of
/// the RNS decomposition's digit split.
pub(crate) fn peel_digit(v: &mut [u64], low: &mut [u64], log_base: u32) {
    dispatch!(peel_digit(v, low, log_base))
}

/// `out[i] ← [c_i]_to`, where `c_i ∈ (−from/2, from/2]` is the centred
/// representative of the residue `v[i]` mod `from` — the hybrid
/// decomposition's lift of a digit onto another plane of the key-switch
/// chain.
pub(crate) fn lift_centered(out: &mut [u64], v: &[u64], from: &Modulus, to: &Modulus) {
    match current_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `ntt_forward`.
        SimdBackend::Avx512Ifma
            if ifma::admits(out.len(), from.value()) && ifma::admits(out.len(), to.value()) =>
        unsafe { ifma::lift_centered(out, v, from.value(), to.value()) },
        _ => scalar::lift_centered(out, v, from, to),
    }
}

/// Writes `residues` (canonical, `< q`) into `dst` as packed
/// `field_bits(q)`-bit fields, little-endian: the wire's plane layout,
/// which is also the layout of every operand a server keeps resident
/// ([`crate::rns::PackedPoly`]). `dst` is exactly
/// `residues.len()·field_bits(q)/8` bytes; `wire::push_plane` sizes it.
/// Under `Avx512Ifma`, for a modulus the `ifma` kernels admit that is at
/// least 8 bits wide, eight fields per vector (`ifma::pack_plane`): the
/// same bytes.
pub(crate) fn pack_plane(dst: &mut [u8], residues: &[u64], q: u64) {
    match current_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `ntt_forward`.
        SimdBackend::Avx512Ifma if ifma::packs(residues.len(), q) => unsafe {
            ifma::pack_plane(dst, residues, q)
        },
        _ => scalar::pack_plane(dst, residues, q),
    }
}

/// Reads `dst.len()` packed `field_bits(q)`-bit fields from the start of
/// `src` (at least `dst.len()·field_bits(q)/8` bytes) into `dst`,
/// unchecked: the inverse of [`pack_plane`]. The wire's reader checks
/// each field against `q` after it; resident planes were packed from
/// canonical residues. Under `Avx512Ifma`, for a modulus the `ifma`
/// kernels admit, eight fields per vector (`ifma::unpack_plane`); under
/// `Avx2` and for the other limbs of `Avx512Ifma`, four fields per vector
/// by byte shuffles up to 60 bits (`shuffle::unpack_plane`); otherwise
/// the lanes' branch-free loop, or the reference under `Scalar`.
pub(crate) fn unpack_plane(src: &[u8], dst: &mut [u64], q: u64) {
    match current_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `ntt_forward`.
        SimdBackend::Avx512Ifma if ifma::admits(dst.len(), q) => unsafe {
            ifma::unpack_plane(src, dst, q)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dispatch!`.
        SimdBackend::Avx2 | SimdBackend::Avx512Ifma
            if crate::wire::field_bits(q) <= shuffle::MAX_BITS =>
        unsafe { shuffle::unpack_plane(src, dst, q) },
        backend => dispatch!(backend => unpack_plane(src, dst, q)),
    }
}

/// `a[i] ← a[i]·b[i] mod q` with `b` a packed plane ([`pack_plane`]'s
/// layout): [`mul_pointwise`] on each [`DOT_BLOCK`] of `a` against its
/// stretch of `b`, unpacked on the stack. Under `Avx512Ifma`, for a
/// modulus the `ifma` kernels admit, `ifma::mul_pointwise` with `b`
/// unpacked in registers.
pub(crate) fn mul_pointwise_packed(a: &mut [u64], b: &[u8], q: &Modulus) {
    #[cfg(target_arch = "x86_64")]
    if current_backend() == SimdBackend::Avx512Ifma && ifma::admits(a.len(), q.value()) {
        // SAFETY: as in `ntt_forward`.
        return unsafe { ifma::mul_pointwise_packed(a, b, q) };
    }
    let mut buf = [0u64; DOT_BLOCK];
    for (block, a) in a.chunks_mut(DOT_BLOCK).enumerate() {
        let span = block * DOT_BLOCK..block * DOT_BLOCK + a.len();
        mul_pointwise(a, Plane::Packed(b).block(span, &mut buf, q.value()), q);
    }
}

/// Coefficients per block of [`dot_pair`]: two `u128` accumulator rows of
/// this length (8 KiB together) stay in L1 while the terms stream past.
const DOT_BLOCK: usize = 256;

/// Terms one pass of the block kernels folds into the accumulators. A
/// one-term pass is bound by its four accumulator-word stores per
/// coefficient; folding several products per load/store of each
/// accumulator moves the bound to the multiplier.
const DOT_UNROLL: usize = 2;

/// What an unused slot of a [`DOT_UNROLL`]-wide pass multiplies.
static ZERO_BLOCK: [u64; DOT_BLOCK] = [0; DOT_BLOCK];

/// One limb plane of a [`dot_pair`] operand, in the form its data is kept
/// in: one word per residue (ciphertexts, babies, hoisted digits), or
/// packed at the limb's width ([`pack_plane`]'s layout: Galois keys and
/// prepared masks).
#[derive(Clone, Copy)]
pub(crate) enum Plane<'a> {
    Words(&'a [u64]),
    Packed(&'a [u8]),
}

impl<'a> Plane<'a> {
    pub(crate) fn is_packed(self) -> bool {
        matches!(self, Plane::Packed(_))
    }

    /// The whole plane as words.
    ///
    /// # Panics
    ///
    /// On a packed plane: only words are read through a permutation.
    fn words(self) -> &'a [u64] {
        match self {
            Plane::Words(w) => w,
            Plane::Packed(_) => panic!("a gathered operand is kept as words"),
        }
    }

    /// Coefficients `span` (`span.start` a multiple of 8, so a packed
    /// stretch starts on a byte) as words: borrowed, or unpacked into
    /// `buf`.
    fn block<'b>(self, span: Range<usize>, buf: &'b mut [u64; DOT_BLOCK], q: u64) -> &'b [u64]
    where
        'a: 'b,
    {
        match self {
            Plane::Words(w) => &w[span],
            Plane::Packed(bytes) => {
                let from = span.start * crate::wire::field_bits(q) / 8;
                let out = &mut buf[..span.len()];
                unpack_plane(&bytes[from..], out, q);
                out
            }
        }
    }
}

/// One term of [`dot_pair`], as limb planes: adds `x0 ⊙ shared` to the
/// first output and `x1 ⊙ shared` to the second. `x0` and `x1` are kept
/// alike, at most one side of the product is packed (a key, or a mask),
/// and every term of one call has the same forms.
#[derive(Clone, Copy)]
pub(crate) struct DotPlanes<'a> {
    pub x0: Plane<'a>,
    pub x1: Plane<'a>,
    pub shared: Plane<'a>,
}

/// The lazy inner product under every mask sum and every key switch:
/// `r0[i] ← r0[i] + Σ_k x0_k[i]·s_k[i] mod q` and the same for `r1` over
/// `x1_k`, with `s_k[i]` read as `shared_k[gather[i]]` when a Galois
/// permutation is fused in (one gather serves both outputs; a gathered
/// operand is words).
///
/// Per [`DOT_BLOCK`] coefficients the products of all `terms` are summed
/// unreduced in `u128`, [`DOT_UNROLL`] terms to a pass, and reduced
/// **once**; an early reduction every [`Modulus::lazy_dot_terms`] terms
/// keeps the sum inside [`Modulus::reduce_u128`]'s input bound for every
/// modulus. A packed plane's stretch of a block is unpacked on the stack
/// first. Each output is the canonical residue of the exact sum, so it
/// is bit-identical to `terms` sequential [`fma_pointwise`] calls on any
/// backend.
///
/// Under `Avx512Ifma`, for a modulus the `ifma` kernels admit, the same
/// sum runs on the 52-bit multiplier instead (`ifma::dot_pair`), which
/// unpacks packed planes in registers as it reads them: the same
/// canonical residues.
///
/// Every plane `term(k)` yields, and `gather` when present, must cover
/// the outputs.
pub(crate) fn dot_pair<'a>(
    r0: &mut [u64],
    r1: &mut [u64],
    terms: usize,
    term: impl Fn(usize) -> DotPlanes<'a>,
    gather: Option<&[u32]>,
    q: &Modulus,
) {
    #[cfg(target_arch = "x86_64")]
    if current_backend() == SimdBackend::Avx512Ifma && ifma::admits(r0.len(), q.value()) {
        // SAFETY: as in `ntt_forward`.
        return unsafe { ifma::dot_pair(r0, r1, terms, term, gather, q) };
    }
    let flush_every = q.lazy_dot_terms();
    let mut acc0 = [0u128; DOT_BLOCK];
    let mut acc1 = [0u128; DOT_BLOCK];
    // Per slot of a pass: where `x0`, `x1` and `shared` unpack to.
    let mut bufs = [[[0u64; DOT_BLOCK]; 3]; DOT_UNROLL];
    let blocks = r0.chunks_mut(DOT_BLOCK).zip(r1.chunks_mut(DOT_BLOCK));
    for (block, (r0, r1)) in blocks.enumerate() {
        let len = r0.len();
        let span = block * DOT_BLOCK..block * DOT_BLOCK + len;
        let (acc0, acc1) = (&mut acc0[..len], &mut acc1[..len]);
        for (acc, r) in [(&mut *acc0, &*r0), (&mut *acc1, &*r1)] {
            for (a, &x) in acc.iter_mut().zip(r) {
                *a = x as u128;
            }
        }
        let zeros = &ZERO_BLOCK[..len];
        let mut room = flush_every;
        let mut k = 0;
        while k < terms {
            if room == 0 {
                dot_reduce(acc0, q);
                dot_reduce(acc1, q);
                room = flush_every;
            }
            let take = DOT_UNROLL.min(room).min(terms - k);
            // Slots past `take` multiply zeros (through any gatherable
            // plane): they add nothing.
            let unused = match gather {
                Some(_) => term(k).shared.words(),
                None => zeros,
            };
            let mut pass = [(zeros, zeros, unused); DOT_UNROLL];
            let slots = pass.iter_mut().zip(&mut bufs);
            let qv = q.value();
            for ((slot, [b0, b1, bs]), t) in slots.zip((k..k + take).map(&term)) {
                *slot = (
                    t.x0.block(span.clone(), b0, qv),
                    t.x1.block(span.clone(), b1, qv),
                    match gather {
                        None => t.shared.block(span.clone(), bs, qv),
                        Some(_) => t.shared.words(),
                    },
                );
            }
            match gather {
                None => dot_mac::<false>(acc0, acc1, &pass, &[]),
                Some(perm) => dot_mac::<true>(acc0, acc1, &pass, &perm[span.clone()]),
            }
            k += take;
            room -= take;
        }
        dot_reduce(acc0, q);
        dot_reduce(acc1, q);
        for (acc, r) in [(&*acc0, r0), (&*acc1, r1)] {
            for (x, &a) in r.iter_mut().zip(acc) {
                *x = a as u64;
            }
        }
    }
}

/// One pass of [`dot_pair`] over a block: `acc0[i] += Σ_t x0_t[i]·s_t[j]`
/// and the same for `acc1` over `x1_t`, unreduced, with `j = perm[i]` into
/// the whole shared plane when `GATHER` and `j = i` into a block-long one
/// otherwise; each slot is `(x0, x1, shared)`. Plain 64×64→128 multiplies
/// and carries, which have no lane form: every backend that gets here runs
/// this loop and differs only in [`dot_reduce`].
fn dot_mac<const GATHER: bool>(
    acc0: &mut [u128],
    acc1: &mut [u128],
    pass: &[(&[u64], &[u64], &[u64]); DOT_UNROLL],
    perm: &[u32],
) {
    let len = acc0.len();
    let acc1 = &mut acc1[..len];
    let perm = if GATHER { &perm[..len] } else { perm };
    let pass = pass.map(|(x0, x1, shared)| {
        let shared = if GATHER { shared } else { &shared[..len] };
        (&x0[..len], &x1[..len], shared)
    });
    for i in 0..len {
        let (mut a0, mut a1) = (acc0[i], acc1[i]);
        let j = if GATHER { perm[i] as usize } else { i };
        for (x0, x1, s) in pass {
            let z = s[j] as u128;
            a0 += x0[i] as u128 * z;
            a1 += x1[i] as u128 * z;
        }
        acc0[i] = a0;
        acc1[i] = a1;
    }
}

/// `acc[i] ← acc[i] mod q` (each `acc[i] < 2^124`).
fn dot_reduce(acc: &mut [u128], q: &Modulus) {
    dispatch!(dot_reduce(acc, q))
}

// ---------------------------------------------------------------------
// Scalar backend: the engine's original loops, moved here verbatim. Do
// not "improve" these — they are the reference the lane backends (and
// the committed bench baselines) are measured and verified against.
// ---------------------------------------------------------------------

mod scalar {
    use crate::arith::Modulus;
    use crate::wire::field_bits;

    /// `x·w mod q` lazily reduced to `[0, 2q)` — `ShoupPrecomp::mul_lazy`
    /// over the SoA `(operand, quotient)` pair.
    #[inline(always)]
    fn mul_lazy(x: u64, w: u64, w_quo: u64, q: u64) -> u64 {
        let approx = ((x as u128 * w_quo as u128) >> 64) as u64;
        x.wrapping_mul(w).wrapping_sub(approx.wrapping_mul(q))
    }

    pub(super) fn ntt_forward(a: &mut [u64], op: &[u64], quo: &[u64], q: u64) {
        let n = a.len();
        let two_q = 2 * q;
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t >>= 1;
            for i in 0..m {
                let j1 = 2 * i * t;
                let w = op[m + i];
                let wq = quo[m + i];
                for j in j1..j1 + t {
                    // Harvey forward butterfly, inputs < 4q, outputs < 4q.
                    let mut x = a[j];
                    if x >= two_q {
                        x -= two_q;
                    }
                    let u = mul_lazy(a[j + t], w, wq, q); // < 2q
                    a[j] = x + u;
                    a[j + t] = x + two_q - u;
                }
            }
            m <<= 1;
        }
        // Final full reduction to [0, q).
        for x in a.iter_mut() {
            if *x >= two_q {
                *x -= two_q;
            }
            if *x >= q {
                *x -= q;
            }
        }
    }

    pub(super) fn ntt_inverse(
        a: &mut [u64],
        op: &[u64],
        quo: &[u64],
        q: u64,
        n_inv_op: u64,
        n_inv_quo: u64,
    ) {
        let n = a.len();
        let two_q = 2 * q;
        let mut t = 1usize;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = op[h + i];
                let wq = quo[h + i];
                for j in j1..j1 + t {
                    // Gentleman–Sande butterfly, lazy.
                    let x = a[j];
                    let y = a[j + t];
                    let mut s = x + y;
                    if s >= two_q {
                        s -= two_q;
                    }
                    a[j] = s;
                    a[j + t] = mul_lazy(x + two_q - y, w, wq, q);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for x in a.iter_mut() {
            // Lazy butterflies leave values < 2q; two conditional
            // subtractions replace the old hardware division (`% q`).
            let mut v = *x;
            if v >= two_q {
                v -= two_q;
            }
            if v >= q {
                v -= q;
            }
            let r = mul_lazy(v, n_inv_op, n_inv_quo, q);
            *x = if r >= q { r - q } else { r };
        }
    }

    pub(super) fn add_assign(a: &mut [u64], b: &[u64], q: &Modulus) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = q.add_mod(*x, y);
        }
    }

    pub(super) fn sub_assign(a: &mut [u64], b: &[u64], q: &Modulus) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = q.sub_mod(*x, y);
        }
    }

    pub(super) fn negate(a: &mut [u64], q: &Modulus) {
        for x in a.iter_mut() {
            *x = q.neg_mod(*x);
        }
    }

    pub(super) fn mul_pointwise(a: &mut [u64], b: &[u64], q: &Modulus) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = q.mul_mod(*x, y);
        }
    }

    pub(super) fn mul_scalar(a: &mut [u64], c: u64, q: &Modulus) {
        let c = q.reduce(c);
        for x in a.iter_mut() {
            *x = q.mul_mod(*x, c);
        }
    }

    pub(super) fn fma_pointwise(r: &mut [u64], a: &[u64], b: &[u64], q: &Modulus) {
        for ((x, &y), &z) in r.iter_mut().zip(a).zip(b) {
            *x = q.add_mod(*x, q.mul_mod(y, z));
        }
    }

    pub(super) fn dot_reduce(acc: &mut [u128], q: &Modulus) {
        for a in acc.iter_mut() {
            *a = q.reduce_u128(*a) as u128;
        }
    }

    /// Shifts and masks: nothing for the lanes to rewrite, so they inline
    /// this body and only re-compile it.
    #[inline(always)]
    pub(super) fn peel_digit(v: &mut [u64], low: &mut [u64], log_base: u32) {
        let mask = (1u64 << log_base) - 1;
        for (rem, d) in v.iter_mut().zip(low) {
            *d = *rem & mask;
            *rem >>= log_base;
        }
    }

    pub(super) fn lift_centered(out: &mut [u64], v: &[u64], from: &Modulus, to: &Modulus) {
        for (o, &x) in out.iter_mut().zip(v) {
            // Centered representative: halves the |v_i| bound that
            // multiplies the key noise.
            *o = to.from_signed(from.center(x));
        }
    }

    /// The wire's plane writer: fields appended to a word, which goes out
    /// whole as it fills.
    pub(super) fn pack_plane(dst: &mut [u8], residues: &[u64], q: u64) {
        let bits = field_bits(q) as u32;
        let mut words = dst.chunks_exact_mut(8);
        // `acc` holds the `held < 64` low bits not yet written.
        let mut acc: u64 = 0;
        let mut held = 0;
        for &r in residues {
            debug_assert!(r < q, "pack_plane: residue {r} >= {q}");
            acc |= r << held;
            held += bits;
            if held >= 64 {
                if let Some(word) = words.next() {
                    word.copy_from_slice(&acc.to_le_bytes());
                }
                held -= 64;
                // The high `held` bits of `r` that did not fit.
                acc = r >> (bits - held);
            }
        }
        let tail = words.into_remainder();
        let len = tail.len();
        tail.copy_from_slice(&acc.to_le_bytes()[..len]);
    }

    /// The reader: whole little-endian words taken in as fields run out,
    /// the last one zero-padded if `src` ends mid-word.
    pub(super) fn unpack_plane(src: &[u8], dst: &mut [u64], q: u64) {
        let bits = field_bits(q) as u32;
        let mask = u64::MAX >> (64 - bits);
        let mut words = src.chunks_exact(8);
        let tail = {
            let rest = words.remainder();
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            u64::from_le_bytes(w)
        };
        let mut next = || {
            words.next().map_or(tail, |c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                u64::from_le_bytes(w)
            })
        };
        // `acc` holds the `held < bits` low bits not yet read.
        let mut acc: u64 = 0;
        let mut held = 0;
        for d in dst.iter_mut() {
            *d = if held >= bits {
                let v = acc & mask;
                acc >>= bits;
                held -= bits;
                v
            } else {
                let w = next();
                let v = (acc | w << held) & mask;
                // The rest of `w` past this field.
                acc = w >> (bits - held);
                held += 64 - bits;
                v
            };
        }
    }
}

// ---------------------------------------------------------------------
// Lane backends: branch-free bodies chunked to LANES so that, where LLVM
// vectorizes (the kernels without a 64×64→128 multiply — see the module
// header), it needs no scalar epilogue (plane lengths are powers of two
// ≥ 8, hence multiples of LANES). The same `#[inline(always)]` bodies are exposed
// twice — once plain (`portable`), once under
// `#[target_feature(enable = "avx2")]` (`avx2`), which re-codegens every
// inlined body with AVX2 enabled.
// ---------------------------------------------------------------------

mod lanes {
    mod body {
        use crate::arith::{mulhi_u128, Modulus, LAZY_SUM_BITS};
        use crate::wire::field_bits;

        /// Lane width the kernels chunk by: 4 × u64 is one 256-bit AVX2
        /// vector, and two 128-bit NEON/SSE2 vectors — for the additive
        /// kernels LLVM does vectorize; the butterflies' Shoup multiply
        /// stays scalar at any width. NTT stages with `t < LANES` (the
        /// last two) run the same body unchunked.
        pub(super) const LANES: usize = 4;

        /// Branch-free `if x >= m { x - m } else { x }` — identical value,
        /// no data-dependent branch (the NTT's conditional subtraction is
        /// taken ~50% of the time, the worst case for a predictor).
        #[inline(always)]
        fn csub(x: u64, m: u64) -> u64 {
            x - m * ((x >= m) as u64)
        }

        /// Shoup `x·w mod q` lazily reduced to `[0, 2q)` — bit-identical
        /// to the scalar `mul_lazy` (same three multiplications).
        #[inline(always)]
        fn mul_lazy(x: u64, w: u64, w_quo: u64, q: u64) -> u64 {
            let approx = ((x as u128 * w_quo as u128) >> 64) as u64;
            x.wrapping_mul(w).wrapping_sub(approx.wrapping_mul(q))
        }

        /// Branch-free Barrett `a·b mod q`. The quotient estimate is off
        /// by at most 2 (see `Modulus::reduce_u128`), so two masked
        /// subtractions reproduce the scalar `while` loop exactly.
        #[inline(always)]
        fn mul_mod_bf(a: u64, b: u64, q: u64, ratio: u128) -> u64 {
            reduce_bf(a as u128 * b as u128, q, ratio)
        }

        /// Branch-free Barrett `x mod q` for `x < 2^124` — the tail of
        /// [`mul_mod_bf`], also the one reduction a lazy dot block pays.
        #[inline(always)]
        fn reduce_bf(x: u128, q: u64, ratio: u128) -> u64 {
            debug_assert!(x >> LAZY_SUM_BITS == 0, "reduce_bf input exceeds 2^124");
            let t = mulhi_u128(x, ratio);
            let r = (x - t * q as u128) as u64;
            csub(csub(r, q), q)
        }

        /// One span of forward Harvey butterflies (shared by the chunked
        /// and the small-`t` paths; `lo`/`hi` are the two block halves).
        #[inline(always)]
        fn fwd_pairs(lo: &mut [u64], hi: &mut [u64], w: u64, wq: u64, q: u64, two_q: u64) {
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                let xv = csub(*x, two_q);
                let u = mul_lazy(*y, w, wq, q);
                *x = xv + u;
                *y = xv + two_q - u;
            }
        }

        /// One span of inverse Gentleman–Sande butterflies.
        #[inline(always)]
        fn inv_pairs(lo: &mut [u64], hi: &mut [u64], w: u64, wq: u64, q: u64, two_q: u64) {
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                let xv = *x;
                let yv = *y;
                *x = csub(xv + yv, two_q);
                *y = mul_lazy(xv + two_q - yv, w, wq, q);
            }
        }

        pub(super) fn ntt_forward(a: &mut [u64], op: &[u64], quo: &[u64], q: u64) {
            let n = a.len();
            let two_q = 2 * q;
            let mut t = n;
            let mut m = 1usize;
            while m < n {
                t >>= 1;
                for i in 0..m {
                    let j1 = 2 * i * t;
                    let w = op[m + i];
                    let wq = quo[m + i];
                    let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                    if t >= LANES {
                        // t is a power of two ≥ LANES, so chunks_exact
                        // covers the span with no remainder.
                        for (lc, hc) in lo.chunks_exact_mut(LANES).zip(hi.chunks_exact_mut(LANES)) {
                            fwd_pairs(lc, hc, w, wq, q, two_q);
                        }
                    } else {
                        fwd_pairs(lo, hi, w, wq, q, two_q);
                    }
                }
                m <<= 1;
            }
            for x in a.iter_mut() {
                *x = csub(csub(*x, two_q), q);
            }
        }

        pub(super) fn ntt_inverse(
            a: &mut [u64],
            op: &[u64],
            quo: &[u64],
            q: u64,
            n_inv_op: u64,
            n_inv_quo: u64,
        ) {
            let n = a.len();
            let two_q = 2 * q;
            let mut t = 1usize;
            let mut m = n;
            while m > 1 {
                let h = m >> 1;
                let mut j1 = 0usize;
                for i in 0..h {
                    let w = op[h + i];
                    let wq = quo[h + i];
                    let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                    if t >= LANES {
                        for (lc, hc) in lo.chunks_exact_mut(LANES).zip(hi.chunks_exact_mut(LANES)) {
                            inv_pairs(lc, hc, w, wq, q, two_q);
                        }
                    } else {
                        inv_pairs(lo, hi, w, wq, q, two_q);
                    }
                    j1 += 2 * t;
                }
                t <<= 1;
                m = h;
            }
            for x in a.iter_mut() {
                let v = csub(csub(*x, two_q), q);
                let r = mul_lazy(v, n_inv_op, n_inv_quo, q);
                *x = csub(r, q);
            }
        }

        pub(super) fn add_assign(a: &mut [u64], b: &[u64], q: &Modulus) {
            let qv = q.value();
            for (x, &y) in a.iter_mut().zip(b) {
                *x = csub(*x + y, qv);
            }
        }

        pub(super) fn sub_assign(a: &mut [u64], b: &[u64], q: &Modulus) {
            let qv = q.value();
            for (x, &y) in a.iter_mut().zip(b) {
                let xv = *x;
                // xv - y, plus q exactly when it would underflow: the
                // wrapping round-trip reproduces `sub_mod`'s two branches.
                *x = xv.wrapping_sub(y).wrapping_add(qv * ((xv < y) as u64));
            }
        }

        pub(super) fn negate(a: &mut [u64], q: &Modulus) {
            let qv = q.value();
            for x in a.iter_mut() {
                let xv = *x;
                // neg_mod with the x == 0 branch folded into a mask.
                *x = (qv - xv) * ((xv != 0) as u64);
            }
        }

        pub(super) fn mul_pointwise(a: &mut [u64], b: &[u64], q: &Modulus) {
            let qv = q.value();
            let ratio = q.const_ratio();
            for (x, &y) in a.iter_mut().zip(b) {
                *x = mul_mod_bf(*x, y, qv, ratio);
            }
        }

        pub(super) fn mul_scalar(a: &mut [u64], c: u64, q: &Modulus) {
            let qv = q.value();
            let ratio = q.const_ratio();
            let c = q.reduce(c);
            for x in a.iter_mut() {
                *x = mul_mod_bf(*x, c, qv, ratio);
            }
        }

        pub(super) fn fma_pointwise(r: &mut [u64], a: &[u64], b: &[u64], q: &Modulus) {
            let qv = q.value();
            let ratio = q.const_ratio();
            for ((x, &y), &z) in r.iter_mut().zip(a).zip(b) {
                *x = csub(*x + mul_mod_bf(y, z, qv, ratio), qv);
            }
        }

        pub(super) fn dot_reduce(acc: &mut [u128], q: &Modulus) {
            let qv = q.value();
            let ratio = q.const_ratio();
            for a in acc.iter_mut() {
                *a = reduce_bf(*a, qv, ratio) as u128;
            }
        }

        pub(super) fn peel_digit(v: &mut [u64], low: &mut [u64], log_base: u32) {
            crate::simd::scalar::peel_digit(v, low, log_base)
        }

        /// The reader without its branch: field `p` of a group of eight
        /// (the `w` bytes from the group's first) is the word at byte
        /// `⌊p·w/8⌋` shifted right by `p·w mod 8`, with the next byte's
        /// bits above it (a field of up to 62 bits spans nine bytes), and
        /// masked. Whole groups while the nine bytes of the last field
        /// lie in `src`; the reference loop for the rest.
        pub(super) fn unpack_plane(src: &[u8], dst: &mut [u64], q: u64) {
            let w = field_bits(q);
            let mask = u64::MAX >> (64 - w);
            let reach = 7 * w / 8 + 9;
            let groups = match src.len().checked_sub(reach) {
                Some(room) => (room / w + 1).min(dst.len() / 8),
                None => 0,
            };
            for (g, out) in dst[..8 * groups].chunks_exact_mut(8).enumerate() {
                let bytes = &src[g * w..g * w + reach];
                for (p, d) in out.iter_mut().enumerate() {
                    let (at, sh) = (p * w / 8, p * w % 8);
                    let mut word = [0u8; 8];
                    word.copy_from_slice(&bytes[at..at + 8]);
                    let lo = u64::from_le_bytes(word) >> sh;
                    // `<< (64 − sh)` in two steps: zero when `sh = 0`.
                    let hi = (bytes[at + 8] as u64) << 1 << (63 - sh);
                    *d = (lo | hi) & mask;
                }
            }
            crate::simd::scalar::unpack_plane(&src[groups * w..], &mut dst[8 * groups..], q);
        }
    }

    /// Generates the `portable` (plain) and `avx2` (`target_feature`)
    /// entry points over the shared lane bodies.
    macro_rules! lane_backends {
        ($(fn $name:ident($($arg:ident: $ty:ty),* $(,)?);)*) => {
            pub(super) mod portable {
                use crate::arith::Modulus;
                $(
                    #[inline]
                    pub(in crate::simd) fn $name($($arg: $ty),*) {
                        super::body::$name($($arg),*)
                    }
                )*
            }

            #[cfg(target_arch = "x86_64")]
            pub(super) mod avx2 {
                use crate::arith::Modulus;
                $(
                    /// # Safety
                    ///
                    /// The CPU must support AVX2 (`is_x86_feature_detected!`).
                    #[target_feature(enable = "avx2")]
                    pub(in crate::simd) unsafe fn $name($($arg: $ty),*) {
                        super::body::$name($($arg),*)
                    }
                )*
            }
        };
    }

    lane_backends! {
        fn ntt_forward(a: &mut [u64], op: &[u64], quo: &[u64], q: u64);
        fn ntt_inverse(a: &mut [u64], op: &[u64], quo: &[u64], q: u64,
                       n_inv_op: u64, n_inv_quo: u64);
        fn add_assign(a: &mut [u64], b: &[u64], q: &Modulus);
        fn sub_assign(a: &mut [u64], b: &[u64], q: &Modulus);
        fn negate(a: &mut [u64], q: &Modulus);
        fn mul_pointwise(a: &mut [u64], b: &[u64], q: &Modulus);
        fn mul_scalar(a: &mut [u64], c: u64, q: &Modulus);
        fn fma_pointwise(r: &mut [u64], a: &[u64], b: &[u64], q: &Modulus);
        fn dot_reduce(acc: &mut [u128], q: &Modulus);
        fn peel_digit(v: &mut [u64], low: &mut [u64], log_base: u32);
        fn unpack_plane(src: &[u8], dst: &mut [u64], q: u64);
    }
}

// ---------------------------------------------------------------------
// AVX2 plane reader: four fields a vector by byte shuffles, for the
// backends and limbs the IFMA reader does not take.
//
// Field `p` of a group of eight starts `s_p = p·w mod 8` bits into byte
// `a_p = ⌊p·w/8⌋` of the group. A vector takes four fields, two to each
// 128-bit lane, and a lane is the 16 bytes from the byte its first field
// starts in: the pair's bits are the `2w` from bit `s_p` of it, which end
// inside those 16 bytes iff `s_p + 2w ≤ 128` — for every `s_p ≤ 7` once
// `w ≤ 60`. A `vpshufb` gives each 64-bit element the eight bytes from its
// field's first, a `vpsrlvq` by `s_p` puts the field at bit 0; a field
// with `s_p + w > 64` (only once `w > 57`) also takes its ninth byte, by
// a second `vpshufb` and a `vpsllvq` by `64 − s_p`; an `and` keeps its
// `w` bits. The controls and counts of every width are one table, built
// at compile time, so a call (one 256-coefficient block of the dot)
// starts with eight vector loads.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod shuffle {
    use std::arch::x86_64::*;

    use crate::wire::field_bits;

    /// The widest field [`unpack_plane`] reads (section comment).
    pub(super) const MAX_BITS: usize = 60;

    /// What [`unpack_groups`] needs of a width, per vector `h` of a group
    /// (fields `4h..4h + 4`; its lanes start at the bytes of fields `4h`
    /// and `4h + 2`): the `vpshufb` controls of the eight bytes from each
    /// field's first and of its ninth, and the `vpsrlvq` / `vpsllvq`
    /// counts `s_p` and `64 − s_p`, as little-endian bytes.
    struct Layout {
        low: [[u8; 32]; 2],
        high: [[u8; 32]; 2],
        down: [[u8; 32]; 2],
        up: [[u8; 32]; 2],
    }

    /// [`Layout`] by width, built at compile time.
    static LAYOUTS: [Layout; MAX_BITS + 1] = {
        const EMPTY: Layout = Layout {
            low: [[0; 32]; 2],
            high: [[0; 32]; 2],
            down: [[0; 32]; 2],
            up: [[0; 32]; 2],
        };
        let mut table = [EMPTY; MAX_BITS + 1];
        let mut w = 1;
        while w <= MAX_BITS {
            let t = &mut table[w];
            let mut h = 0;
            while h < 2 {
                let mut i = 0;
                while i < 32 {
                    let first = 4 * h + 2 * (i / 16);
                    let (p, b) = (first + i % 16 / 8, i % 8);
                    let rel = p * w / 8 - first * w / 8;
                    let s = p * w % 8;
                    t.low[h][i] = (rel + b) as u8;
                    // `vpshufb` zeroes a byte whose index has bit 7 set.
                    let ninth = b == 0 && s + w > 64;
                    t.high[h][i] = if ninth { (rel + 8) as u8 } else { 0x80 };
                    // Shift counts: each 64-bit element's low byte.
                    t.down[h][i] = if b == 0 { s as u8 } else { 0 };
                    // `vpsllvq` by 64 (`s_p = 0`) gives zero.
                    t.up[h][i] = if b == 0 { (64 - s) as u8 } else { 0 };
                    i += 1;
                }
                h += 1;
            }
            w += 1;
        }
        table
    };

    /// [`super::unpack_plane`] for fields of at most [`MAX_BITS`] bits.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_plane(src: &[u8], dst: &mut [u64], q: u64) {
        let w = field_bits(q);
        debug_assert!(w <= MAX_BITS);
        // SAFETY: the CPU supports AVX2 (this function's contract).
        unsafe {
            if w > 57 {
                unpack_groups::<true>(src, dst, q);
            } else {
                unpack_groups::<false>(src, dst, q);
            }
        }
    }

    /// Whole groups of eight fields while their four 16-byte loads lie in
    /// `src`, the lane body for the rest. `NINTH`: whether a field can
    /// reach a ninth byte (`w > 57`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn unpack_groups<const NINTH: bool>(src: &[u8], dst: &mut [u64], q: u64) {
        let w = field_bits(q);
        let layout = &LAYOUTS[w];
        // SAFETY: each load reads one 32-byte array of `layout`.
        let vector = |v: &[u8; 32]| unsafe { _mm256_loadu_si256(v.as_ptr().cast()) };
        let low = layout.low.each_ref().map(vector);
        let high = layout.high.each_ref().map(vector);
        let down = layout.down.each_ref().map(vector);
        let up = layout.up.each_ref().map(vector);
        let at = |p: usize| p * w / 8;
        let mask = _mm256_set1_epi64x((u64::MAX >> (64 - w)) as i64);
        let reach = at(6) + 16;
        let groups = match src.len().checked_sub(reach) {
            Some(room) => (room / w + 1).min(dst.len() / 8),
            None => 0,
        };
        for (g, out) in dst[..8 * groups].chunks_exact_mut(8).enumerate() {
            let group = &src[g * w..g * w + reach];
            for h in 0..2 {
                let lanes = [&group[at(4 * h)..], &group[at(4 * h + 2)..]];
                // SAFETY: each lane's 16 bytes lie in `group`: the
                // second starts at `at(4h + 2) ≤ at(6) = reach − 16`.
                let x = unsafe {
                    _mm256_loadu2_m128i(lanes[1].as_ptr().cast(), lanes[0].as_ptr().cast())
                };
                let mut v = _mm256_srlv_epi64(_mm256_shuffle_epi8(x, low[h]), down[h]);
                if NINTH {
                    let hi = _mm256_sllv_epi64(_mm256_shuffle_epi8(x, high[h]), up[h]);
                    v = _mm256_or_si256(v, hi);
                }
                // SAFETY: four words of `out` from `4h`; the store is
                // unaligned.
                unsafe {
                    _mm256_storeu_si256(out[4 * h..].as_mut_ptr().cast(), _mm256_and_si256(v, mask))
                };
            }
        }
        // SAFETY: the CPU supports AVX2 (this function's contract).
        unsafe { super::lanes::avx2::unpack_plane(&src[groups * w..], &mut dst[8 * groups..], q) };
    }
}

// ---------------------------------------------------------------------
// AVX-512 IFMA NTT: Harvey's lazy butterfly in 52-bit form, eight per
// instruction (the shape of Intel HEXL's published NTT; no dependency).
//
// `madd52lo/hi(acc, b, c)` add the low / high 52 bits of the 104-bit
// product of the **low 52 bits** of `b` and `c` to `acc`. With `β = 2^52`
// and `w′ = ⌊w·β/q⌋`, the Shoup product of a lazy `y < β` and a canonical
// twiddle `w < q` is
//
//   Q = ⌊y·w′/β⌋ = madd52hi(0, y, w′)
//   U = y·w − Q·q ∈ [0, q + y·q/β) ⊂ [0, 2q)
//     = madd52lo(madd52lo(0, y, w), Q, β − q) mod β          (2q ≤ β)
//
// (`β − q ≡ −q` to a multiplier that works mod `β`, which saves the
// subtraction of `(madd52lo(0, y, w) − madd52lo(0, Q, q)) mod β`.) This is
// exact as long as every operand fits 52 bits. Butterfly values stay
// below `4q`, so the kernel runs iff `4q ≤ 2^52`, i.e. `q < 2^50`; wider
// limbs fall through to the lane NTT. `w′` is not a second table: the
// tables hold `quo = ⌊w·2^64/q⌋`, and a floor of a floor is exact —
// `quo >> 12 = ⌊⌊w·2^64/q⌋ / 2^12⌋ = ⌊w·2^52/q⌋`.
//
// A stage of span `t` pairs coefficient `j` of each `2t`-block with
// coefficient `j + t` under the block's one twiddle. While `t` is at
// least a vector, that is one broadcast twiddle per block. The last three
// stages (`t = 4, 2, 1`; the first three of the inverse) pair elements
// *inside* a vector: they take two vectors — 16 consecutive coefficients —
// at a time, gather the butterflies' `X` and `Y` halves into one vector
// each with `permutex2var`, spread the `8/t` twiddles over their blocks'
// lanes with `permutexvar`, and permute back, all three stages between
// one load and one store. Hence `n ≥ 16`.
//
// The quotient estimate differs from the reference's 64-bit one, so lazy
// intermediates may differ by a multiple of `q`; outputs are canonical
// residues of the same values, hence the same bytes.
//
// ## The constant multiplier
//
// The same `mul_lazy` with one broadcast operand `c < q` and its quotient
// `⌊c·2^52/q⌋` (one division per call) is `x·c mod q` for any `x < 2^52`:
// `canon(x·c) = csub(mul_lazy(x, c), q)`, and with `c = 1` it is `x mod q`.
// That is all `mul_scalar` and `lift_centered` are made of — every value
// they multiply is a residue, or a magnitude the comments bound, below
// `2^52` — under the same gate on every modulus involved.
//
// ## The lazy inner product
//
// Residues below `2^50` are 52-bit operands, so `lo ← madd52lo(lo, x, s)`
// and `hi ← madd52hi(hi, x, s)` add the exact (≤ 100-bit) product of
// eight coefficient pairs to two `u64` rows, and `V = lo + hi·2^52` is the
// running sum `r + Σ_k x_k·s_k`, unreduced. The row bound, derived as
// `Modulus::lazy_dot_terms` is: `lo` starts at a residue, below `2^50`, and
// gains the low half of a product, below `2^52`, per term, so after `T`
// terms `lo < 2^50 + T·2^52 ≤ 2^64` iff `T ≤ 4095` (`DOT_MAX_TERMS`); `hi`
// starts at zero and gains at most `⌊(q−1)²/2^52⌋ < 2^48` per term, below
// `2^60` over 4095. The kernel folds after every `DOT_GROUP = 32` terms —
// far inside the bound — and carries on from the folded residues, so no
// sum is too long for it.
//
// The four rows of a chunk of 32 coefficients (two outputs × `lo`, `hi` ×
// four vectors: sixteen registers) stay in registers while a group's
// terms stream past — the shared operand loaded, or gathered through the
// Galois permutation, once for both outputs — and fold once:
//
//   V = v0 + v1·2^51 + v2·2^103,   v0 = lo mod 2^51 < 2^51,
//   v1 + v2·2^52 = (lo >> 51) + 2·hi,   v1 < 2^52
//   V mod q = canon(v0 + canon(v1·R1) + canon(v2·R2)),
//   R1 = 2^51 mod q,   R2 = 2^103 mod q
//
// with every `canon` the constant multiplier above: `v1 < 2^52` and
// `v2 < 2^10` are in its range, and the inner sum is below
// `2^51 + 2q ≤ 2^52`, so a multiply by 1 makes it canonical. (The split
// is at 51 bits, not 52, to leave that sum its headroom.) When
// `(lo >> 51) + 2·hi` cannot reach `2^52` — `2T·(1 + ⌊(q−1)²/2^52⌋) < 2^52`
// at `T = DOT_GROUP`, i.e. every limb under `2^49` — `v2` is zero and its
// term is skipped.
//
// Each output is the canonical residue of the exact sum, which is what
// the `u128` kernel writes and what sequential `fma_pointwise` calls
// write: the same bytes.
//
// ## The pointwise products
//
// `mul_pointwise` and `fma_pointwise` are that inner product at one term
// and one output: the exact product of two residues in a `lo`/`hi` pair
// (`lo` starting at zero, or at the accumulator's residue), folded once.
// At `T = 1` the fold's `v2` is always zero, so `dot_consts` drops its
// term for every admitted limb.
//
// ## Packed operands
//
// A Galois key pair or a prepared mask is kept as `w`-bit fields,
// `w = field_bits(q) ≤ 50`, little-endian (the wire's layout). Eight fields
// `8v..8v + 8` are the `w` bytes from `v·w` on, so one masked byte load
// (`maskz_loadu_epi8`, the low `w` bits of the mask set: nothing past the
// plane is read) brings them in, and field `p` starts `p·w mod 8` bits into
// byte `⌊p·w/8⌋`. A `vpermb` gives lane `p` the eight bytes from there
// (the highest, `⌊7w/8⌋ + 7 ≤ 50`, inside the vector), a `vpsrlvq` by
// `p·w mod 8` puts the field at bit 0 — it ends at bit `7 + 50 < 64`, so
// the lane holds all of it — and an `and` with `2^w − 1` clears the
// neighbour's bits above it: the dot reads a packed plane in four
// instructions a vector and never writes its words anywhere.
//
// The packer runs the other way: a `vpsllvq` by `p·w mod 8` puts each field
// at its bit offset within its first byte, and output byte `d < w` is the OR
// of the byte of the field holding bit `8d` and, when one starts inside
// byte `d`, the first byte of the next field — at most those two once
// `w ≥ 8` (two `vpermb`s, the second zero-masked where no field starts),
// then one masked store of `w` bytes. Narrower limbs pack on the
// reference loop.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod ifma {
    use std::arch::x86_64::*;

    use super::{DotPlanes, Plane};
    use crate::arith::Modulus;
    use crate::wire::field_bits;

    /// Whether the kernels run on a degree-`n` plane mod `q`; the section
    /// comment derives both bounds. (Every degree is a power of two: the
    /// kernels walk whole vectors.)
    pub(super) fn admits(n: usize, q: u64) -> bool {
        n >= 16 && n.is_power_of_two() && q >> 50 == 0
    }

    /// Whether [`pack_plane`] packs a degree-`n` plane mod `q`: one
    /// [`admits`] accepts, at least 8 bits wide (section comment).
    pub(super) fn packs(n: usize, q: u64) -> bool {
        admits(n, q) && q >> 7 != 0
    }

    /// Terms the two `u64` rows of the inner product hold without a fold:
    /// `2^50 + DOT_MAX_TERMS·2^52 ≤ 2^64` (section comment).
    const DOT_MAX_TERMS: usize = 4095;

    /// Terms [`dot_pair`] sums between folds — what its stack copy of the
    /// terms' planes holds.
    const DOT_GROUP: usize = 32;
    const _: () = assert!(DOT_GROUP <= DOT_MAX_TERMS);

    /// Compiles every function inside with the features [`super::clamp`]
    /// detects for `Avx512Ifma`: they inline into one another, and the
    /// value intrinsics are safe to call.
    macro_rules! with_ifma {
        ($($item:item)*) => {
            $(
                #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512ifma,avx512bw,avx512vbmi")]
                #[inline]
                $item
            )*
        };
    }

    /// The per-transform constants, broadcast.
    #[derive(Clone, Copy)]
    struct Consts {
        q: __m512i,
        two_q: __m512i,
        /// `2^52 − q`.
        neg_q: __m512i,
        mask52: __m512i,
    }

    /// Eight fixed multipliers — NTT twiddles, or one constant broadcast —
    /// with their 52-bit Shoup quotients `⌊w·2^52/q⌋`.
    #[derive(Clone, Copy)]
    struct Twiddles {
        w: __m512i,
        w52: __m512i,
    }

    /// The per-call constants of [`dot_pair`].
    struct DotConsts {
        c: Consts,
        /// `2^51 mod q`.
        r51: Twiddles,
        /// `2^103 mod q`, when `(lo >> 51) + 2·hi` can reach `2^52`.
        r103: Option<Twiddles>,
        one: Twiddles,
        mask51: __m512i,
        /// The planes' length `n` as eight `u32`s (`2^31` if it is more:
        /// the gather reads its indices as `i32`).
        gather_limit: __m256i,
        /// How a packed plane of this limb unpacks.
        unpack: Unpack,
    }

    /// A plane's vectors: `n/8` of words, or the `n·w/8` bytes of its
    /// packed fields (the other side empty).
    #[derive(Clone, Copy)]
    struct Rows<'a> {
        words: &'a [[u64; 8]],
        packed: &'a [u8],
    }

    /// One term of a [`dot_pair`] group: every plane cut to exactly the
    /// outputs' length `n` — what [`DotConsts::gather_limit`] was made from,
    /// and what the gather in [`dot_chunk`] relies on.
    #[derive(Clone, Copy)]
    struct DotVecs<'a> {
        x0: Rows<'a>,
        x1: Rows<'a>,
        shared: Rows<'a>,
    }

    /// The in-register unpack of eight `w`-bit fields (section comment).
    #[derive(Clone, Copy)]
    struct Unpack {
        /// The field width `w`: eight fields are `w` bytes.
        w: usize,
        /// The low `w` bits: the bytes a load reads.
        load: __mmask64,
        /// Byte `8p + b` ← byte `⌊p·w/8⌋ + b`.
        bytes: __m512i,
        /// Lane `p`: `p·w mod 8`.
        shift: __m512i,
        /// `2^w − 1`.
        mask: __m512i,
    }

    with_ifma! {
        fn load(lanes: &[u64; 8]) -> __m512i {
            // SAFETY: `lanes` is 64 readable bytes; the load is unaligned.
            unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) }
        }

        fn store(lanes: &mut [u64; 8], v: __m512i) {
            // SAFETY: `lanes` is 64 writable bytes; the store is unaligned.
            unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), v) }
        }

        fn splat(x: u64) -> __m512i {
            _mm512_set1_epi64(x as i64)
        }

        fn consts(q: u64) -> Consts {
            Consts {
                q: splat(q),
                two_q: splat(2 * q),
                neg_q: splat((1 << 52) - q),
                mask52: splat((1 << 52) - 1),
            }
        }

        /// A lane index vector from its formula.
        fn lanes_of(f: impl Fn(usize) -> usize) -> __m512i {
            load(&std::array::from_fn(|p| f(p) as u64))
        }

        /// Twiddles from table operands and their 64-bit Shoup quotients:
        /// `quo >> 12` is the 52-bit quotient exactly.
        fn twiddles(w: __m512i, quo: __m512i) -> Twiddles {
            Twiddles {
                w,
                w52: _mm512_srli_epi64::<12>(quo),
            }
        }

        /// The eight table entries from `at` on.
        fn eight(table: &[u64], at: usize) -> __m512i {
            load(table[at..].first_chunk().expect("twiddle tables hold n entries"))
        }

        /// `if x >= m { x - m } else { x }`: when `x < m` the difference
        /// wraps above every lazy value, so the unsigned minimum keeps `x`.
        fn csub(x: __m512i, m: __m512i) -> __m512i {
            _mm512_min_epu64(x, _mm512_sub_epi64(x, m))
        }

        /// Shoup `y·w mod q` lazily reduced to `[0, 2q)`, for `y < 2^52`.
        fn mul_lazy(y: __m512i, tw: Twiddles, c: &Consts) -> __m512i {
            let zero = _mm512_setzero_si512();
            let quot = _mm512_madd52hi_epu64(zero, y, tw.w52);
            let yw = _mm512_madd52lo_epu64(zero, y, tw.w);
            _mm512_and_si512(_mm512_madd52lo_epu64(yw, quot, c.neg_q), c.mask52)
        }

        /// The canonical constant `w < q`, broadcast, with its quotient.
        fn shoup(w: u64, q: u64) -> Twiddles {
            Twiddles {
                w: splat(w),
                w52: splat((((w as u128) << 52) / q as u128) as u64),
            }
        }

        /// `y·w mod q`, canonical, for `y < 2^52`.
        fn mul_canon(y: __m512i, tw: Twiddles, c: &Consts) -> __m512i {
            csub(mul_lazy(y, tw, c), c.q)
        }

        /// Eight butterflies. Forward (Harvey): `x, y < 4q` in,
        /// `(x + wy, x − wy)` out, both `< 4q`. Inverse (Gentleman–Sande):
        /// `x, y < 2q` in, `(x + y, w(x − y))` out, both `< 2q`.
        fn butterfly<const INVERSE: bool>(
            x: __m512i,
            y: __m512i,
            tw: Twiddles,
            c: &Consts,
        ) -> (__m512i, __m512i) {
            if INVERSE {
                let sum = csub(_mm512_add_epi64(x, y), c.two_q);
                let diff = _mm512_sub_epi64(_mm512_add_epi64(x, c.two_q), y);
                (sum, mul_lazy(diff, tw, c))
            } else {
                let x = csub(x, c.two_q);
                let u = mul_lazy(y, tw, c);
                (
                    _mm512_add_epi64(x, u),
                    _mm512_sub_epi64(_mm512_add_epi64(x, c.two_q), u),
                )
            }
        }

        /// The stage of span `t ≥ 8`: block `i` pairs its halves under
        /// twiddle `n/2t + i`, in either direction.
        fn span_stage<const INVERSE: bool>(
            a: &mut [u64],
            t: usize,
            op: &[u64],
            quo: &[u64],
            c: &Consts,
        ) {
            let first = a.len() / (2 * t);
            for (i, block) in a.chunks_exact_mut(2 * t).enumerate() {
                let tw = twiddles(splat(op[first + i]), splat(quo[first + i]));
                let (lo, hi) = block.split_at_mut(t);
                let (lo, hi) = (lo.as_chunks_mut().0, hi.as_chunks_mut().0);
                for (xs, ys) in lo.iter_mut().zip(hi) {
                    let (x, y) = butterfly::<INVERSE>(load(xs), load(ys), tw, c);
                    store(xs, x);
                    store(ys, y);
                }
            }
        }

        /// The stage of span `T ∈ {4, 2, 1}` on chunk `k` of 16 consecutive
        /// coefficients `(lo, hi)`. Its `8/T` blocks — `8k/T` onward of the
        /// stage's `n/2T` — are `T` `X`s then `T` `Y`s each: gathers the
        /// `X`s and the `Y`s (lane `p` of either belongs to block `p/T`),
        /// spreads the blocks' twiddles over their lanes, runs the
        /// butterflies and scatters the halves back.
        fn paired_stage<const T: usize, const INVERSE: bool>(
            (lo, hi): (__m512i, __m512i),
            k: usize,
            n: usize,
            op: &[u64],
            quo: &[u64],
            c: &Consts,
        ) -> (__m512i, __m512i) {
            // Indices 0..8 select from the first source, 8..16 the second.
            let x_of = |p: usize| p / T * 2 * T + p % T;
            let xs = _mm512_permutex2var_epi64(lo, lanes_of(x_of), hi);
            let ys = _mm512_permutex2var_epi64(lo, lanes_of(|p| x_of(p) + T), hi);
            // The eight-entry read stays inside the table: it starts at
            // most at n/2T + n/2T − 8/T, and 8 − 8/T ≤ n − n/T.
            let at = n / (2 * T) + 8 / T * k;
            let tw = twiddles(eight(op, at), eight(quo, at));
            let block = lanes_of(|p| p / T);
            let tw = Twiddles {
                w: _mm512_permutexvar_epi64(block, tw.w),
                w52: _mm512_permutexvar_epi64(block, tw.w52),
            };
            let (xs, ys) = butterfly::<INVERSE>(xs, ys, tw, c);
            // Coefficient `e` sits in block `e / 2T` at offset `e % 2T`:
            // an `X` lane below `T`, a `Y` lane (second source) from there.
            let home = |e: usize| {
                let (b, r) = (e / (2 * T), e % (2 * T));
                if r < T {
                    b * T + r
                } else {
                    8 + b * T + r - T
                }
            };
            (
                _mm512_permutex2var_epi64(xs, lanes_of(home), ys),
                _mm512_permutex2var_epi64(xs, lanes_of(|e| home(e + 8)), ys),
            )
        }

        /// [`super::ntt_forward`] for a transform [`admits`] accepts. Any
        /// other shape panics or computes garbage; none is unsound.
        pub(super) fn ntt_forward(a: &mut [u64], op: &[u64], quo: &[u64], q: u64) {
            let n = a.len();
            let c = consts(q);
            let mut t = n / 2;
            while t >= 8 {
                span_stage::<false>(a, t, op, quo, &c);
                t /= 2;
            }
            let chunks = a.as_chunks_mut::<8>().0.as_chunks_mut::<2>().0;
            for (k, [lo, hi]) in chunks.iter_mut().enumerate() {
                let mut v = (load(lo), load(hi));
                v = paired_stage::<4, false>(v, k, n, op, quo, &c);
                v = paired_stage::<2, false>(v, k, n, op, quo, &c);
                v = paired_stage::<1, false>(v, k, n, op, quo, &c);
                store(lo, csub(csub(v.0, c.two_q), c.q));
                store(hi, csub(csub(v.1, c.two_q), c.q));
            }
        }

        /// [`super::ntt_inverse`] for a transform [`admits`] accepts; as
        /// [`ntt_forward`].
        pub(super) fn ntt_inverse(
            a: &mut [u64],
            op: &[u64],
            quo: &[u64],
            q: u64,
            n_inv_op: u64,
            n_inv_quo: u64,
        ) {
            let n = a.len();
            let c = consts(q);
            let chunks = a.as_chunks_mut::<8>().0.as_chunks_mut::<2>().0;
            for (k, [lo, hi]) in chunks.iter_mut().enumerate() {
                let mut v = (load(lo), load(hi));
                v = paired_stage::<1, true>(v, k, n, op, quo, &c);
                v = paired_stage::<2, true>(v, k, n, op, quo, &c);
                v = paired_stage::<4, true>(v, k, n, op, quo, &c);
                store(lo, v.0);
                store(hi, v.1);
            }
            let mut t = 8;
            while t < n / 2 {
                span_stage::<true>(a, t, op, quo, &c);
                t *= 2;
            }
            // The last stage (one block, twiddle `op[1]`) with the n⁻¹
            // scaling folded in: `(x + y)·n⁻¹` and `(x − y)·(w·n⁻¹)`, each
            // one lazy multiply of a value below `4q`, then canonical.
            let n_inv = twiddles(splat(n_inv_op), splat(n_inv_quo));
            let w = (op[1] as u128 * n_inv_op as u128 % q as u128) as u64;
            let w_n_inv = shoup(w, q);
            let (lo, hi) = a.split_at_mut(n / 2);
            let (lo, hi) = (lo.as_chunks_mut().0, hi.as_chunks_mut().0);
            for (xs, ys) in lo.iter_mut().zip(hi) {
                let (x, y) = (load(xs), load(ys));
                let sum = _mm512_add_epi64(x, y);
                let diff = _mm512_sub_epi64(_mm512_add_epi64(x, c.two_q), y);
                store(xs, mul_canon(sum, n_inv, &c));
                store(ys, mul_canon(diff, w_n_inv, &c));
            }
        }

        /// [`super::mul_scalar`] by a canonical `w` on a plane [`admits`]
        /// accepts.
        pub(super) fn mul_scalar(a: &mut [u64], w: u64, q: u64) {
            let c = consts(q);
            let w = shoup(w, q);
            for x in a.as_chunks_mut().0 {
                store(x, mul_canon(load(x), w, &c));
            }
        }

        /// [`super::lift_centered`] on planes [`admits`] accepts under both
        /// moduli.
        pub(super) fn lift_centered(out: &mut [u64], v: &[u64], from: u64, to: u64) {
            let c = consts(to);
            let one = shoup(1, to);
            let (from, half) = (splat(from), splat(from >> 1));
            let zero = _mm512_setzero_si512();
            for (o, x) in out.as_chunks_mut().0.iter_mut().zip(v.as_chunks().0) {
                let x = load(x);
                // |centred x| is below `from/2 < 2^49`; its residue goes
                // back under the sign wherever that is not zero.
                let neg = _mm512_cmpgt_epu64_mask(x, half);
                let r = mul_canon(_mm512_mask_sub_epi64(x, neg, from, x), one, &c);
                let neg = _mm512_mask_cmpneq_epu64_mask(neg, r, zero);
                store(o, _mm512_mask_sub_epi64(r, neg, c.q, r));
            }
        }

        /// The constants folding rows of at most `terms` terms on planes
        /// of `n` coefficients mod `q`.
        fn dot_consts(q: &Modulus, terms: usize, n: usize) -> DotConsts {
            let qv = q.value();
            // What one term adds to `(lo >> 51) + 2·hi`, at most, halved.
            let per_term = 1 + (qv - 1) as u128 * (qv - 1) as u128 / (1 << 52);
            let narrow = 2 * terms as u128 * per_term < 1 << 52;
            DotConsts {
                c: consts(qv),
                r51: shoup(q.reduce(1 << 51), qv),
                r103: (!narrow).then(|| shoup(q.reduce_u128(1 << 103), qv)),
                one: shoup(1, qv),
                mask51: splat((1 << 51) - 1),
                gather_limit: _mm256_set1_epi32(n.min(1 << 31) as i32),
                unpack: unpack_consts(qv),
            }
        }

        /// [`super::mul_pointwise`] on a plane [`admits`] accepts: each
        /// product exact in one `lo`/`hi` row pair, folded as a one-term
        /// inner product.
        pub(super) fn mul_pointwise(a: &mut [u64], b: &[u64], q: &Modulus) {
            let k = dot_consts(q, 1, a.len());
            let zero = _mm512_setzero_si512();
            for (x, y) in a.as_chunks_mut().0.iter_mut().zip(b.as_chunks().0) {
                let (xv, yv) = (load(x), load(y));
                let lo = _mm512_madd52lo_epu64(zero, xv, yv);
                let hi = _mm512_madd52hi_epu64(zero, xv, yv);
                store(x, dot_fold(lo, hi, &k));
            }
        }

        /// [`super::mul_pointwise_packed`] on a plane [`admits`] accepts:
        /// [`mul_pointwise`] with each vector of `b` unpacked as it is read.
        pub(super) fn mul_pointwise_packed(a: &mut [u64], b: &[u8], q: &Modulus) {
            let k = dot_consts(q, 1, a.len());
            let zero = _mm512_setzero_si512();
            for (v, x) in a.as_chunks_mut().0.iter_mut().enumerate() {
                let (xv, yv) = (load(x), unpack8(b, v, &k.unpack));
                let lo = _mm512_madd52lo_epu64(zero, xv, yv);
                let hi = _mm512_madd52hi_epu64(zero, xv, yv);
                store(x, dot_fold(lo, hi, &k));
            }
        }

        /// [`super::fma_pointwise`] on a plane [`admits`] accepts: the
        /// accumulator's residue starts the `lo` row, as an output does in
        /// [`dot_pair`], and one product joins it.
        pub(super) fn fma_pointwise(r: &mut [u64], a: &[u64], b: &[u64], q: &Modulus) {
            let k = dot_consts(q, 1, r.len());
            let zero = _mm512_setzero_si512();
            let planes = a.as_chunks().0.iter().zip(b.as_chunks().0);
            for (acc, (x, y)) in r.as_chunks_mut().0.iter_mut().zip(planes) {
                let (xv, yv) = (load(x), load(y));
                let lo = _mm512_madd52lo_epu64(load(acc), xv, yv);
                let hi = _mm512_madd52hi_epu64(zero, xv, yv);
                store(acc, dot_fold(lo, hi, &k));
            }
        }

        /// `(lo + hi·2^52) mod q`, canonical, for the rows of at most the
        /// terms `k` was made for (section comment).
        fn dot_fold(lo: __m512i, hi: __m512i, k: &DotConsts) -> __m512i {
            let v0 = _mm512_and_si512(lo, k.mask51);
            // The multiplier reads `v1`, the low 52 bits, by itself.
            let v = _mm512_add_epi64(_mm512_srli_epi64::<51>(lo), _mm512_slli_epi64::<1>(hi));
            let mut sum = _mm512_add_epi64(v0, mul_canon(v, k.r51, &k.c));
            if let Some(r103) = k.r103 {
                let v2 = _mm512_srli_epi64::<52>(v);
                sum = _mm512_add_epi64(sum, mul_canon(v2, r103, &k.c));
            }
            mul_canon(sum, k.one, &k.c)
        }

        /// The eight permutation entries at `perm`, checked: each is below
        /// `limit`.
        ///
        /// # Panics
        ///
        /// Panics when one is not — where the reference's slice index would.
        fn gather_indices(perm: &[u32; 8], limit: __m256i) -> __m256i {
            // SAFETY: `perm` is 32 readable bytes; the load is unaligned.
            let idx = unsafe { _mm256_loadu_si256(perm.as_ptr().cast()) };
            assert!(
                _mm256_cmplt_epu32_mask(idx, limit) == 0xff,
                "gather index out of range"
            );
            idx
        }

        /// Eight words of a row: loaded, or unpacked from the packed
        /// plane's fields `8v..8v + 8`.
        fn row<const PACKED: bool>(rows: Rows<'_>, v: usize, u: &Unpack) -> __m512i {
            if PACKED {
                unpack8(rows.packed, v, u)
            } else {
                load(&rows.words[v])
            }
        }

        /// Vectors `at..at + VECS` of a plane, in its form.
        fn rows_at<'a, const VECS: usize, const PACKED: bool>(
            rows: Rows<'a>,
            at: usize,
            u: &Unpack,
        ) -> Rows<'a> {
            if PACKED {
                let packed = &rows.packed[at * u.w..(at + VECS) * u.w];
                Rows { words: &[], packed }
            } else {
                let words = &rows.words[at..at + VECS];
                Rows { words, packed: &[] }
            }
        }

        /// One chunk of `8·VECS` coefficients — vectors `at..at + VECS` of
        /// every plane — through a group's terms: rows in registers, one
        /// fold per output vector. `XP` / `SP`: whether `x0`/`x1` / a
        /// non-gathered `shared` are packed.
        fn dot_chunk<const VECS: usize, const GATHER: bool, const XP: bool, const SP: bool>(
            r0: &mut [[u64; 8]; VECS],
            r1: &mut [[u64; 8]; VECS],
            at: usize,
            group: &[DotVecs<'_>],
            perm: &[[u32; 8]],
            k: &DotConsts,
        ) {
            let zero = _mm512_setzero_si512();
            let (mut lo0, mut lo1) = ([zero; VECS], [zero; VECS]);
            let (mut hi0, mut hi1) = ([zero; VECS], [zero; VECS]);
            let mut idx = [_mm256_setzero_si256(); VECS];
            for v in 0..VECS {
                lo0[v] = load(&r0[v]);
                lo1[v] = load(&r1[v]);
                if GATHER {
                    idx[v] = gather_indices(&perm[at + v], k.gather_limit);
                }
            }
            let u = &k.unpack;
            for t in group {
                let x0 = rows_at::<VECS, XP>(t.x0, at, u);
                let x1 = rows_at::<VECS, XP>(t.x1, at, u);
                let mut s = [zero; VECS];
                if GATHER {
                    let shared = t.shared.words.as_flattened();
                    for v in 0..VECS {
                        // SAFETY: `gather_indices` checked every index below
                        // the length of `shared` (see `DotVecs`) and below
                        // 2^31, so each lane reads the eight bytes of one of
                        // its entries.
                        s[v] = unsafe {
                            _mm512_i32gather_epi64::<8>(idx[v], shared.as_ptr().cast())
                        };
                    }
                } else {
                    let shared = rows_at::<VECS, SP>(t.shared, at, u);
                    s = std::array::from_fn(|v| row::<SP>(shared, v, u));
                }
                for v in 0..VECS {
                    let (a0, a1) = (row::<XP>(x0, v, u), row::<XP>(x1, v, u));
                    lo0[v] = _mm512_madd52lo_epu64(lo0[v], a0, s[v]);
                    hi0[v] = _mm512_madd52hi_epu64(hi0[v], a0, s[v]);
                    lo1[v] = _mm512_madd52lo_epu64(lo1[v], a1, s[v]);
                    hi1[v] = _mm512_madd52hi_epu64(hi1[v], a1, s[v]);
                }
            }
            for v in 0..VECS {
                store(&mut r0[v], dot_fold(lo0[v], hi0[v], k));
                store(&mut r1[v], dot_fold(lo1[v], hi1[v], k));
            }
        }

        /// Every chunk of `VECS` vectors of the outputs through one group,
        /// under one instance of [`dot_chunk`].
        fn dot_chunks<const VECS: usize, const GATHER: bool, const XP: bool, const SP: bool>(
            r0: &mut [[u64; 8]],
            r1: &mut [[u64; 8]],
            group: &[DotVecs<'_>],
            perm: &[[u32; 8]],
            k: &DotConsts,
        ) {
            let chunks = r0.as_chunks_mut().0.iter_mut().zip(r1.as_chunks_mut().0);
            for (i, (c0, c1)) in chunks.enumerate() {
                dot_chunk::<VECS, GATHER, XP, SP>(c0, c1, VECS * i, group, perm, k);
            }
        }

        /// [`dot_chunks`] for the group's gather and operand forms
        /// (`packed`: whether `x0`/`x1` and `shared` are).
        fn dot_group<const VECS: usize>(
            r0: &mut [[u64; 8]],
            r1: &mut [[u64; 8]],
            group: &[DotVecs<'_>],
            perm: Option<&[[u32; 8]]>,
            packed: (bool, bool),
            k: &DotConsts,
        ) {
            match (perm, packed) {
                (None, (false, false)) => dot_chunks::<VECS, false, false, false>(r0, r1, group, &[], k),
                (None, (false, true)) => dot_chunks::<VECS, false, false, true>(r0, r1, group, &[], k),
                (None, (true, _)) => dot_chunks::<VECS, false, true, false>(r0, r1, group, &[], k),
                (Some(perm), (false, _)) => dot_chunks::<VECS, true, false, false>(r0, r1, group, perm, k),
                (Some(perm), (true, _)) => dot_chunks::<VECS, true, true, false>(r0, r1, group, perm, k),
            }
        }

        /// [`super::dot_pair`] on planes [`admits`] accepts: at most
        /// [`DOT_GROUP`] terms at a time, the outputs carrying the folded sum
        /// from one group to the next.
        pub(super) fn dot_pair<'a>(
            r0: &mut [u64],
            r1: &mut [u64],
            terms: usize,
            term: impl Fn(usize) -> DotPlanes<'a>,
            gather: Option<&[u32]>,
            q: &Modulus,
        ) {
            if terms == 0 {
                return;
            }
            let n = r0.len();
            let k = dot_consts(q, DOT_GROUP, n);
            let (r0, r1) = (r0.as_chunks_mut().0, r1[..n].as_chunks_mut().0);
            let perm = gather.map(|perm| perm[..n].as_chunks().0);
            let first = term(0);
            let packed = (first.x0.is_packed(), first.shared.is_packed());
            assert!(
                !packed.1 || gather.is_none() && !packed.0,
                "a packed shared operand meets words, ungathered"
            );
            // Every plane cut to the outputs' `n` coefficients.
            let rows = |plane: Plane<'a>| match plane {
                Plane::Words(words) => Rows {
                    words: words[..n].as_chunks().0,
                    packed: &[],
                },
                Plane::Packed(bytes) => Rows {
                    words: &[],
                    packed: &bytes[..n * k.unpack.w / 8],
                },
            };
            let none = Rows {
                words: &[],
                packed: &[],
            };
            let mut group = [DotVecs {
                x0: none,
                x1: none,
                shared: none,
            }; DOT_GROUP];
            for first in (0..terms).step_by(DOT_GROUP) {
                let take = DOT_GROUP.min(terms - first);
                for (slot, t) in group.iter_mut().zip((first..first + take).map(&term)) {
                    debug_assert_eq!((t.x0.is_packed(), t.shared.is_packed()), packed);
                    debug_assert_eq!(t.x1.is_packed(), packed.0);
                    *slot = DotVecs {
                        x0: rows(t.x0),
                        x1: rows(t.x1),
                        shared: rows(t.shared),
                    };
                }
                // `n` is a power of two from 16 up: whole chunks of four
                // vectors, or one of two.
                if n >= 32 {
                    dot_group::<4>(r0, r1, &group[..take], perm, packed, &k);
                } else {
                    dot_group::<2>(r0, r1, &group[..take], perm, packed, &k);
                }
            }
        }

        /// The per-width constants of [`unpack8`] for limb `q`.
        fn unpack_consts(q: u64) -> Unpack {
            let w = field_bits(q);
            Unpack {
                w,
                load: u64::MAX >> (64 - w),
                // Lane `p` takes the eight bytes from the one its field
                // starts in; the field starts `p·w mod 8` bits into it.
                bytes: bytes_of(|i| i / 8 * w / 8 + i % 8),
                shift: lanes_of(|p| p * w % 8),
                mask: splat(u64::MAX >> (64 - w)),
            }
        }

        /// Fields `8v..8v + 8` of a packed plane — the `w` bytes from
        /// `v·w` on — as eight words.
        fn unpack8(packed: &[u8], v: usize, u: &Unpack) -> __m512i {
            let fields = &packed[v * u.w..(v + 1) * u.w];
            // SAFETY: the mask selects the first `w` bytes, all inside
            // `fields`; the bytes it leaves out are not read.
            let x = unsafe { _mm512_maskz_loadu_epi8(u.load, fields.as_ptr().cast()) };
            let x = _mm512_permutexvar_epi8(u.bytes, x);
            _mm512_and_si512(_mm512_srlv_epi64(x, u.shift), u.mask)
        }

        /// [`super::unpack_plane`] on a plane [`admits`] accepts.
        pub(super) fn unpack_plane(src: &[u8], dst: &mut [u64], q: u64) {
            let u = unpack_consts(q);
            for (v, d) in dst.as_chunks_mut().0.iter_mut().enumerate() {
                store(d, unpack8(src, v, &u));
            }
        }

        /// [`super::pack_plane`] on a plane [`packs`] accepts: each vector
        /// of eight residues shifted to its fields' bit offsets, its bytes
        /// moved to theirs by two byte permutes (the byte's low field and
        /// the field that starts inside it, which a width of eight bits or
        /// more leaves as the only two), and `w` bytes stored.
        pub(super) fn pack_plane(dst: &mut [u8], residues: &[u64], q: u64) {
            let w = field_bits(q);
            let shift = lanes_of(|p| p * w % 8);
            // Output byte `d < w` holds bit `8d` of field `8d/w`, whose
            // lane starts at byte `(8d/w)·w/8`.
            let low_field = |d: usize| 8 * d / w;
            let low = bytes_of(|d| {
                let p = low_field(d);
                if d < w {
                    8 * p + d - p * w / 8
                } else {
                    0
                }
            });
            // The field that starts inside byte `d`, if one does, is the
            // next one.
            let starts_inside = |d: usize| {
                let p = low_field(d) + 1;
                d < w && p < 8 && p * w / 8 == d
            };
            let high = bytes_of(|d| 8 * (low_field(d) + 1) % 64);
            let high_lanes = (0..64).fold(0u64, |m, d| m | (starts_inside(d) as u64) << d);
            let keep = u64::MAX >> (64 - w);
            for (v, r) in residues.as_chunks().0.iter().enumerate() {
                debug_assert!(r.iter().all(|&r| r < q), "pack_plane: residue >= {q}");
                let x = _mm512_sllv_epi64(load(r), shift);
                let out = _mm512_or_si512(
                    _mm512_permutexvar_epi8(low, x),
                    _mm512_maskz_permutexvar_epi8(high_lanes, high, x),
                );
                let fields = &mut dst[v * w..(v + 1) * w];
                // SAFETY: the mask selects the first `w` bytes, all inside
                // `fields`; the bytes it leaves out are not written.
                unsafe { _mm512_mask_storeu_epi8(fields.as_mut_ptr().cast(), keep, out) };
            }
        }

        /// A byte index vector from its formula.
        fn bytes_of(f: impl Fn(usize) -> usize) -> __m512i {
            let bytes: [u8; 64] = std::array::from_fn(|i| f(i) as u8);
            // SAFETY: `bytes` is 64 readable bytes; the load is unaligned.
            unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::generate_ntt_prime;
    use rand::{Rng, SeedableRng};

    /// Restores the thread's backend override when dropped, so a failing
    /// assertion cannot leak a forced backend into later tests on the
    /// same test thread.
    struct ForceGuard;
    impl ForceGuard {
        fn pin(b: SimdBackend) -> (Self, SimdBackend) {
            (ForceGuard, force_backend(Some(b)))
        }
    }
    impl Drop for ForceGuard {
        fn drop(&mut self) {
            force_backend(None);
        }
    }

    #[test]
    fn clamp_keeps_what_the_cpu_has() {
        // Auto-detection never lands on the scalar reference; the scalar
        // and portable backends are always selectable; forcing the top
        // backend yields exactly what detection found, and forcing Avx2
        // yields Avx2 wherever detection found it or better.
        let detected = detect();
        assert_ne!(detected, SimdBackend::Scalar);
        for backend in [SimdBackend::Scalar, SimdBackend::Portable] {
            let (_g, eff) = ForceGuard::pin(backend);
            assert_eq!(eff, backend);
        }
        let (_g, eff) = ForceGuard::pin(SimdBackend::Avx512Ifma);
        assert_eq!(eff, detected);
        let (_g, eff) = ForceGuard::pin(SimdBackend::Avx2);
        let expect = match detected {
            SimdBackend::Avx512Ifma => SimdBackend::Avx2,
            other => other,
        };
        assert_eq!(eff, expect);
    }

    #[test]
    fn override_is_thread_local() {
        let (_g, _) = ForceGuard::pin(SimdBackend::Scalar);
        let other = std::thread::spawn(current_backend).join().unwrap();
        assert_eq!(other, detect(), "spawned threads keep the default");
        assert_ne!(other, SimdBackend::Scalar);
        // Nor does a spawned thread's own override reach this one.
        let theirs = std::thread::spawn(|| force_backend(Some(SimdBackend::Avx512Ifma)))
            .join()
            .unwrap();
        assert_eq!(theirs, detect());
        assert_eq!(current_backend(), SimdBackend::Scalar);
    }

    /// Every backend this build can run, each exercised against Scalar.
    fn runnable_backends() -> Vec<SimdBackend> {
        let mut v = vec![SimdBackend::Scalar];
        for b in [
            SimdBackend::Portable,
            SimdBackend::Avx2,
            SimdBackend::Avx512Ifma,
        ] {
            let (_g, eff) = ForceGuard::pin(b);
            if eff == b {
                v.push(b);
            }
        }
        v
    }

    /// The packer writes the wire's layout — each field's bits set one by
    /// one through `wire::write_field`, the layout's own definition — and
    /// the reader reads it back, on every backend, at every width from 1 to
    /// 62 bits, at the degree the IFMA kernels skip (8) and at ones they
    /// take; `wire::push_plane`, which sizes the space, writes the same
    /// bytes. Each plane holds random residues below `q` and the edges
    /// `0`, `q − 1`, `⌊q/2⌋`, `⌊q/2⌋ + 1`.
    #[test]
    fn packed_planes_are_the_wire_layout_at_every_width() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9AC4);
        for bits in 1..=62usize {
            // The smallest and a random modulus of this width.
            let top = 1u64 << (bits - 1);
            for q in [top, top + rng.random_range(0..top)] {
                for n in [8usize, 16, 256, 4096] {
                    let mut residues: Vec<u64> = (0..n).map(|_| rng.random_range(0..q)).collect();
                    residues[..4].copy_from_slice(&[0, q - 1, q / 2, (q / 2 + 1) % q]);
                    let mut expect = vec![0u8; n * bits / 8];
                    for (j, &r) in residues.iter().enumerate() {
                        crate::wire::write_field(&mut expect, bits, j, r);
                    }
                    for backend in runnable_backends() {
                        let (_g, _) = ForceGuard::pin(backend);
                        let mut pushed = vec![0xA5];
                        crate::wire::push_plane(&mut pushed, &residues, q);
                        assert_eq!(
                            &pushed[1..],
                            &expect[..],
                            "{bits} bits, n = {n}, {backend:?}"
                        );
                        let mut packed = vec![0x5A; expect.len()];
                        pack_plane(&mut packed, &residues, q);
                        assert_eq!(packed, expect, "{bits} bits, n = {n}, {backend:?}");
                        let mut back = vec![u64::MAX; n];
                        unpack_plane(&expect, &mut back, q);
                        assert_eq!(back, residues, "{bits} bits, n = {n}, {backend:?}");
                        // A stretch from inside the plane, as the dot's
                        // blocks read it: more bytes follow it.
                        let stretches = [(8, 8), (n / 2, n / 4), (0, n - 8)];
                        for (from, len) in stretches
                            .into_iter()
                            .filter(|&(f, l)| f % 8 == 0 && f + l <= n)
                        {
                            let mut part = vec![u64::MAX; len];
                            unpack_plane(&expect[from * bits / 8..], &mut part, q);
                            assert_eq!(
                                part,
                                residues[from..from + len],
                                "{bits} bits, {from}+{len}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pointwise_kernels_bit_identical_across_backends() {
        let n = 256usize;
        for bits in [20u32, 40, 59, 60] {
            let q = Modulus::new(generate_ntt_prime(bits, n / 2).unwrap()).unwrap();
            let qv = q.value();
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE + bits as u64);
            // Edge residues (0, 1, q-1) mixed into random data.
            let mut a: Vec<u64> = (0..n).map(|_| rng.random_range(0..qv)).collect();
            a[0] = 0;
            a[1] = qv - 1;
            a[2] = 1;
            let b: Vec<u64> = (0..n).map(|_| rng.random_range(0..qv)).collect();
            let run = |backend: SimdBackend| {
                let (_g, eff) = ForceGuard::pin(backend);
                assert_eq!(eff, backend);
                let mut r = a.clone();
                add_assign(&mut r, &b, &q);
                sub_assign(&mut r, &a, &q);
                negate(&mut r, &q);
                mul_pointwise(&mut r, &b, &q);
                mul_scalar(&mut r, u64::MAX, &q);
                fma_pointwise(&mut r, &a, &b, &q);
                r
            };
            let reference = run(SimdBackend::Scalar);
            for backend in runnable_backends() {
                assert_eq!(run(backend), reference, "{} bits={bits}", backend.name());
            }
        }

        // `mul_scalar` on every limb of every preset, by edge and random
        // constants.
        let mut presets = crate::params::BfvParams::presets(4096).unwrap();
        presets.extend(crate::params::BfvParams::hybrid_presets(4096).unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CA1A);
        for (name, params) in presets {
            let chain = params.chain();
            for i in 0..chain.limbs() {
                let q = chain.modulus(i);
                let qv = q.value();
                let a: Vec<u64> = (0..n).map(|_| rng.random_range(0..qv)).collect();
                for c in [
                    0,
                    1,
                    qv - 1,
                    rng.random_range(0..qv),
                    rng.random_range(0..qv),
                ] {
                    let run = |backend: SimdBackend| {
                        let (_g, eff) = ForceGuard::pin(backend);
                        assert_eq!(eff, backend);
                        let mut r = a.clone();
                        mul_scalar(&mut r, c, q);
                        r
                    };
                    let reference = run(SimdBackend::Scalar);
                    for backend in runnable_backends() {
                        assert_eq!(run(backend), reference, "{name} limb {i} c={c}");
                    }
                }
            }
        }
    }
}
