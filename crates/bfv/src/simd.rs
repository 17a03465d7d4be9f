//! Vectorized kernel dispatch: scalar reference, portable lanes, and AVX2.
//!
//! Every element-wise loop in the engine — the Harvey NTT butterflies in
//! [`crate::ntt::NttTable`] and the Barrett/Shoup pointwise kernels in
//! [`crate::poly`] — funnels through this module. Three backends exist:
//!
//! * [`SimdBackend::Scalar`] — the original loops, verbatim. This is the
//!   pinned reference: the other backends are *defined* as bit-identical
//!   to it. Never auto-selected; [`force_backend`] reaches it, and every
//!   equivalence test compares against it.
//! * [`SimdBackend::Portable`] — branch-free, lane-chunked rewrites of the
//!   same arithmetic, shaped so LLVM auto-vectorizes them for whatever the
//!   target baseline offers (NEON on aarch64, SSE2 on x86_64).
//! * [`SimdBackend::Avx2`] — the identical lane bodies monomorphized under
//!   `#[target_feature(enable = "avx2")]`, selected at runtime via
//!   `is_x86_feature_detected!`. (`std::simd` is nightly-only; cloning
//!   `#[inline(always)]` bodies into a `target_feature` wrapper is the
//!   stable equivalent of multiversioning.)
//!
//! ## Bit-identity contract
//!
//! All three backends produce **identical bytes** on identical inputs, for
//! every modulus the engine admits. This holds by construction, not by
//! rounding luck: the kernels are pure integer arithmetic, and the lane
//! variants only replace `if x >= m { x -= m }` with the branch-free
//! `x - m·(x ≥ m)` (same value) and the Barrett `while`-correction with
//! two masked subtractions (the quotient estimate is off by at most 2, so
//! the loop never runs more than twice). Lazy `[0, 2q)`/`[0, 4q)`
//! intermediates never escape a kernel; every output is canonical in
//! `[0, q)`. The `simd_equivalence` proptests pin the contract across all
//! presets and levels.
//!
//! ## Headroom
//!
//! The lane butterflies accumulate `x + 2q - u < 4q` in a `u64`, which is
//! why NTT limbs are capped at `q < 2^61`
//! ([`crate::arith::MAX_NTT_MODULUS_BITS`]): `4q < 2^63` leaves one spare
//! bit over the Harvey minimum (`q < 2^62`) for deferred-reduction
//! experiments without changing the tables.
//!
//! ## Overriding the backend (tests/benches)
//!
//! [`force_backend`] pins the calling **thread** to a backend; worker
//! threads spawned by batched transforms keep the process default, so a
//! test forcing `Scalar` cannot race a concurrent test forcing `Avx2`.

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
}

impl SimdBackend {
    /// Human-readable backend name (bench/report labels).
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Portable => "portable",
            SimdBackend::Avx2 => "avx2",
        }
    }
}

/// Clamps a requested backend to what this CPU can actually run: `Avx2`
/// falls back to `Portable` off x86_64 or when the CPU lacks the feature.
fn clamp(requested: SimdBackend) -> SimdBackend {
    match requested {
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

/// The best backend this CPU supports: `Avx2` when it has it, else
/// `Portable`.
pub fn detect() -> SimdBackend {
    clamp(SimdBackend::Avx2)
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
/// CPU supports — see [`clamp`]'s rules — so forcing `Avx2` on a CPU
/// without it leaves the thread on `Portable`.
///
/// The override is **per thread**: worker threads spawned by
/// [`crate::PolyBatch`] transforms or the serving pool keep the detected
/// default. Intended for benches and equivalence tests.
pub fn force_backend(backend: Option<SimdBackend>) -> SimdBackend {
    FORCED.with(|f| f.set(backend.map(clamp)));
    current_backend()
}

// ---------------------------------------------------------------------
// Dispatch: one `match` per kernel invocation (a whole slice, not an
// element), so steady-state cost is a predicted branch. `Avx2` is only
// ever reported by `clamp` after `is_x86_feature_detected!` succeeded,
// which is what makes the `unsafe` call sound.
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($name:ident($($arg:expr),* $(,)?)) => {
        match current_backend() {
            SimdBackend::Portable => lanes::portable::$name($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `clamp` only yields `Avx2` after
            // `is_x86_feature_detected!("avx2")` returned true.
            SimdBackend::Avx2 => unsafe { lanes::avx2::$name($($arg),*) },
            _ => scalar::$name($($arg),*),
        }
    };
}

/// In-place forward negacyclic NTT over SoA twiddles (natural →
/// bit-reversed). Caller guarantees `a.len()` is the table degree and
/// `op`/`quo` are the bit-reverse-scrambled `ψ` powers with their Shoup
/// quotients. Inputs canonical in `[0, q)`; outputs canonical.
pub(crate) fn ntt_forward(a: &mut [u64], op: &[u64], quo: &[u64], q: u64) {
    dispatch!(ntt_forward(a, op, quo, q))
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
    dispatch!(ntt_inverse(a, op, quo, q, n_inv_op, n_inv_quo))
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

/// `a[i] ← a[i]·b[i] mod q` (Barrett), element-wise.
pub(crate) fn mul_pointwise(a: &mut [u64], b: &[u64], q: &Modulus) {
    dispatch!(mul_pointwise(a, b, q))
}

/// `a[i] ← a[i]·c mod q` (Barrett; `c` reduced once up front).
pub(crate) fn mul_scalar(a: &mut [u64], c: u64, q: &Modulus) {
    dispatch!(mul_scalar(a, c, q))
}

/// `r[i] ← r[i] + a[i]·b[i] mod q` (the key-switch inner loop).
pub(crate) fn fma_pointwise(r: &mut [u64], a: &[u64], b: &[u64], q: &Modulus) {
    dispatch!(fma_pointwise(r, a, b, q))
}

/// `a[i] ← (±2^exp)·a[i] mod q` via a conditional-subtract doubling chain.
pub(crate) fn mul_pow2(a: &mut [u64], exp: u32, negative: bool, q: &Modulus) {
    dispatch!(mul_pow2(a, exp, negative, q))
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
/// otherwise. Plain 64×64→128 multiplies and carries: there is no vector
/// form to dispatch to, so every backend runs this loop and differs only
/// in [`dot_reduce`].
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

    pub(super) fn mul_pow2(a: &mut [u64], exp: u32, negative: bool, q: &Modulus) {
        for x in a.iter_mut() {
            let mut v = *x;
            for _ in 0..exp {
                v = q.add_mod(v, v);
            }
            *x = if negative { q.neg_mod(v) } else { v };
        }
    }

    pub(super) fn dot_reduce(acc: &mut [u128], q: &Modulus) {
        for a in acc.iter_mut() {
            *a = q.reduce_u128(*a) as u128;
        }
    }
}

// ---------------------------------------------------------------------
// Lane backends: branch-free bodies chunked to LANES so LLVM vectorizes
// with no scalar epilogue (plane lengths are powers of two ≥ 8, hence
// multiples of LANES). The same `#[inline(always)]` bodies are exposed
// twice — once plain (`portable`), once under
// `#[target_feature(enable = "avx2")]` (`avx2`), which re-codegens every
// inlined body with AVX2 enabled.
// ---------------------------------------------------------------------

mod lanes {
    mod body {
        use crate::arith::{mulhi_u128, Modulus, LAZY_SUM_BITS};

        /// Lane width the kernels chunk by: 4 × u64 is one 256-bit AVX2
        /// vector, and two 128-bit NEON/SSE2 vectors. NTT stages with
        /// `t < LANES` (the last two) run the same body unchunked.
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

        pub(super) fn mul_pow2(a: &mut [u64], exp: u32, negative: bool, q: &Modulus) {
            let qv = q.value();
            for x in a.iter_mut() {
                let mut v = *x;
                for _ in 0..exp {
                    v = csub(v + v, qv);
                }
                *x = if negative {
                    (qv - v) * ((v != 0) as u64)
                } else {
                    v
                };
            }
        }

        pub(super) fn dot_reduce(acc: &mut [u128], q: &Modulus) {
            let qv = q.value();
            let ratio = q.const_ratio();
            for a in acc.iter_mut() {
                *a = reduce_bf(*a, qv, ratio) as u128;
            }
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
        fn mul_pow2(a: &mut [u64], exp: u32, negative: bool, q: &Modulus);
        fn dot_reduce(acc: &mut [u128], q: &Modulus);
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
        // and portable backends are always selectable; Avx2 is granted
        // exactly when it is what detection found.
        let detected = detect();
        assert_ne!(detected, SimdBackend::Scalar);
        for backend in [SimdBackend::Scalar, SimdBackend::Portable] {
            let (_g, eff) = ForceGuard::pin(backend);
            assert_eq!(eff, backend);
        }
        let (_g, eff) = ForceGuard::pin(SimdBackend::Avx2);
        assert_eq!(eff, detected);
    }

    #[test]
    fn override_is_thread_local() {
        let (_g, _) = ForceGuard::pin(SimdBackend::Scalar);
        let other = std::thread::spawn(current_backend).join().unwrap();
        assert_eq!(other, detect(), "spawned threads keep the default");
        assert_eq!(current_backend(), SimdBackend::Scalar);
    }

    /// Every backend this build can run, each exercised against Scalar.
    fn runnable_backends() -> Vec<SimdBackend> {
        let mut v = vec![SimdBackend::Scalar];
        for b in [SimdBackend::Portable, SimdBackend::Avx2] {
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
                mul_pow2(&mut r, 8, true, &q);
                r
            };
            let reference = run(SimdBackend::Scalar);
            for backend in runnable_backends() {
                assert_eq!(run(backend), reference, "{} bits={bits}", backend.name());
            }
        }
    }
}
