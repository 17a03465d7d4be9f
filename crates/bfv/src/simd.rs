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
//!   `lift_centered`: one Shoup `mul_lazy` per product). Wider limbs and
//!   `n = 8` run the `Avx2` lanes — or, for the kernels that have no lane
//!   form, the reference loop.
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
    /// pointwise products, constant multiplies — for limbs under `2^50`
    /// (x86_64, runtime-detected).
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

/// One term of [`dot_pair`], as limb planes: adds `x0 ⊙ shared` to the
/// first output and `x1 ⊙ shared` to the second.
#[derive(Clone, Copy)]
pub(crate) struct DotPlanes<'a> {
    pub x0: &'a [u64],
    pub x1: &'a [u64],
    pub shared: &'a [u64],
}

/// The lazy inner product under every mask sum and every key switch:
/// `r0[i] ← r0[i] + Σ_k x0_k[i]·s_k[i] mod q` and the same for `r1` over
/// `x1_k`, with `s_k[i]` read as `shared_k[gather[i]]` when a Galois
/// permutation is fused in (one gather serves both outputs).
///
/// Per [`DOT_BLOCK`] coefficients the products of all `terms` are summed
/// unreduced in `u128`, [`DOT_UNROLL`] terms to a pass, and reduced
/// **once**; an early reduction every [`Modulus::lazy_dot_terms`] terms
/// keeps the sum inside [`Modulus::reduce_u128`]'s input bound for every
/// modulus. Each output is the canonical residue of the exact sum, so it
/// is bit-identical to `terms` sequential [`fma_pointwise`] calls on any
/// backend.
///
/// Under `Avx512Ifma`, for a modulus the `ifma` kernels admit, the same
/// sum runs on the 52-bit multiplier instead (`ifma::dot_pair`): the same
/// canonical residues.
///
/// Every plane `term(k)` yields, and `gather` when present, must be as
/// long as the outputs.
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
            let mut pass = [DotPlanes {
                x0: zeros,
                x1: zeros,
                shared: if gather.is_some() {
                    term(k).shared
                } else {
                    zeros
                },
            }; DOT_UNROLL];
            for (slot, t) in pass.iter_mut().zip((k..k + take).map(&term)) {
                slot.x0 = &t.x0[span.clone()];
                slot.x1 = &t.x1[span.clone()];
                slot.shared = match gather {
                    None => &t.shared[span.clone()],
                    Some(_) => t.shared,
                };
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
/// otherwise. Plain 64×64→128 multiplies and carries, which have no lane
/// form: every backend that gets here runs this loop and differs only in
/// [`dot_reduce`].
fn dot_mac<const GATHER: bool>(
    acc0: &mut [u128],
    acc1: &mut [u128],
    pass: &[DotPlanes<'_>; DOT_UNROLL],
    perm: &[u32],
) {
    let len = acc0.len();
    let acc1 = &mut acc1[..len];
    let perm = if GATHER { &perm[..len] } else { perm };
    let pass = pass.map(|t| {
        let shared = if GATHER { t.shared } else { &t.shared[..len] };
        (&t.x0[..len], &t.x1[..len], shared)
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
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod ifma {
    use std::arch::x86_64::*;

    use super::DotPlanes;
    use crate::arith::Modulus;

    /// Whether the kernels run on a degree-`n` plane mod `q`; the section
    /// comment derives both bounds. (Every degree is a power of two: the
    /// kernels walk whole vectors.)
    pub(super) fn admits(n: usize, q: u64) -> bool {
        n >= 16 && n.is_power_of_two() && q >> 50 == 0
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
                #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512ifma")]
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
    }

    /// One term of a [`dot_pair`] group: every plane cut to exactly the
    /// outputs' length `n` — what [`DotConsts::gather_limit`] was made from,
    /// and what the gather in [`dot_chunk`] relies on — and `x0`/`x1` into
    /// vectors.
    #[derive(Clone, Copy)]
    struct DotVecs<'a> {
        x0: &'a [[u64; 8]],
        x1: &'a [[u64; 8]],
        shared: &'a [u64],
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

        /// Vectors `at..at + VECS` of a plane.
        fn vecs_at<const VECS: usize>(plane: &[[u64; 8]], at: usize) -> &[[u64; 8]; VECS] {
            plane[at..].first_chunk().expect("planes cover the outputs")
        }

        /// One chunk of `8·VECS` coefficients — vectors `at..at + VECS` of
        /// every plane — through a group's terms: rows in registers, one
        /// fold per output vector.
        fn dot_chunk<const VECS: usize, const GATHER: bool>(
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
            for t in group {
                let (x0, x1) = (vecs_at::<VECS>(t.x0, at), vecs_at::<VECS>(t.x1, at));
                let mut s = [zero; VECS];
                if GATHER {
                    for v in 0..VECS {
                        // SAFETY: `gather_indices` checked every index below
                        // the length of `t.shared` (see `DotVecs`) and below
                        // 2^31, so each lane reads the eight bytes of one of
                        // its entries.
                        s[v] = unsafe {
                            _mm512_i32gather_epi64::<8>(idx[v], t.shared.as_ptr().cast())
                        };
                    }
                } else {
                    let shared = vecs_at::<VECS>(t.shared.as_chunks().0, at);
                    for v in 0..VECS {
                        s[v] = load(&shared[v]);
                    }
                }
                for v in 0..VECS {
                    let (a0, a1) = (load(&x0[v]), load(&x1[v]));
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

        /// Every chunk of `VECS` vectors of the outputs through one group.
        fn dot_group<const VECS: usize>(
            r0: &mut [[u64; 8]],
            r1: &mut [[u64; 8]],
            group: &[DotVecs<'_>],
            perm: Option<&[[u32; 8]]>,
            k: &DotConsts,
        ) {
            let chunks = r0.as_chunks_mut().0.iter_mut().zip(r1.as_chunks_mut().0);
            for (i, (c0, c1)) in chunks.enumerate() {
                match perm {
                    None => dot_chunk::<VECS, false>(c0, c1, VECS * i, group, &[], k),
                    Some(perm) => dot_chunk::<VECS, true>(c0, c1, VECS * i, group, perm, k),
                }
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
            let n = r0.len();
            let k = dot_consts(q, DOT_GROUP, n);
            let (r0, r1) = (r0.as_chunks_mut().0, r1[..n].as_chunks_mut().0);
            let perm = gather.map(|perm| perm[..n].as_chunks().0);
            let mut group = [DotVecs { x0: &[], x1: &[], shared: &[] }; DOT_GROUP];
            for first in (0..terms).step_by(DOT_GROUP) {
                let take = DOT_GROUP.min(terms - first);
                for (slot, t) in group.iter_mut().zip((first..first + take).map(&term)) {
                    *slot = DotVecs {
                        x0: t.x0[..n].as_chunks().0,
                        x1: t.x1[..n].as_chunks().0,
                        shared: &t.shared[..n],
                    };
                }
                // `n` is a power of two from 16 up: whole chunks of four
                // vectors, or one of two.
                if n >= 32 {
                    dot_group::<4>(r0, r1, &group[..take], perm, &k);
                } else {
                    dot_group::<2>(r0, r1, &group[..take], perm, &k);
                }
            }
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
