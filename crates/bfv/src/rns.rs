//! The RNS modulus chain: multi-limb ciphertext arithmetic.
//!
//! Cheetah's larger-`q` regimes (deep noise budgets, ResNet50-scale key
//! switching) need a ciphertext modulus far past one machine word. Instead
//! of big-integer coefficients, the engine follows the residue-number-system
//! design every production BFV library uses: `Q = q_0 · q_1 · … · q_{l-1}`
//! for word-sized NTT primes `q_i`, and a polynomial mod `Q` is stored as
//! `l` *limb planes* — its residues mod each `q_i`. Every element-wise
//! kernel (add, multiply, NTT, Galois permutation) then runs limb-by-limb
//! in plain `u64` Barrett arithmetic; only decryption and base-`A` digit
//! decomposition ever cross limbs, via [`crate::arith::CrtBasis`].
//!
//! Two types implement this:
//!
//! * [`ModulusChain`] — the ordered CRT primes with their per-limb
//!   [`NttTable`]s (memoized process-wide) and the Garner composition
//!   constants. Owned by [`crate::params::BfvParams`]; shared by every
//!   object in a session.
//! * [`RnsPoly`] — `l` limb planes in **one contiguous allocation** with
//!   stride-`n` views, so limb loops stream linearly through memory.
//!
//! Beside them, [`PackedPoly`] keeps a polynomial that a server holds
//! resident — a Galois key pair, a prepared mask — at its limbs' widths,
//! in the wire's plane layout; it has no arithmetic of its own.
//!
//! [`RnsPoly`] is the engine's only polynomial type with arithmetic; a
//! single-modulus polynomial is a one-limb `RnsPoly` over
//! `ModulusChain::new(n, &[q])`
//! (plaintexts in `R_t` are bare coefficient vectors, see
//! [`crate::encoder::Plaintext`]). `tests/rns_equivalence.rs` holds a
//! one-limb chain against a reference on `Vec<u64>` that computes with
//! [`Modulus`]' scalar methods and never enters [`crate::simd`].

use std::fmt;
use std::sync::Arc;

use crate::arith::{CrtBasis, Modulus};
use crate::error::{Error, Result};
use crate::ntt::NttTable;
use crate::simd::{self, DotPlanes, Plane};
use crate::wire;

/// Which domain a polynomial's residues live in — shared by every limb
/// plane of an [`RnsPoly`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Coefficient form.
    Coeff,
    /// NTT (evaluation) form, bit-reversed order (see [`NttTable`]).
    Eval,
}

/// An ordered chain of CRT primes with per-limb NTT tables and the
/// cross-limb (Garner/CRT) constants.
///
/// Cheap to clone (internally reference-counted). Two chains compare equal
/// iff they have the same degree and the same primes in the same order —
/// the compatibility predicate every [`RnsPoly`] operation enforces.
#[derive(Clone)]
pub struct ModulusChain {
    inner: Arc<ChainInner>,
}

struct ChainInner {
    n: usize,
    tables: Vec<Arc<NttTable>>,
    crt: CrtBasis,
    /// `drop_inv[k][i] = q_k^{-1} mod q_i` for `i < k`: the per-residue
    /// correction constants of modulus switching (dropping limb `k` divides
    /// every remaining residue by `q_k`, exactly rounded).
    drop_inv: Vec<Vec<u64>>,
}

impl fmt::Debug for ModulusChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModulusChain")
            .field("n", &self.inner.n)
            .field(
                "moduli",
                &self.moduli().iter().map(Modulus::value).collect::<Vec<_>>(),
            )
            .field("total_bits", &self.total_bits())
            .finish()
    }
}

impl PartialEq for ModulusChain {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.n == other.inner.n && self.moduli() == other.moduli())
    }
}
impl Eq for ModulusChain {}

impl ModulusChain {
    /// Builds a chain for degree `n` from prime limb values (each must be
    /// an NTT prime for `n`, pairwise distinct).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidLimbCount`] / [`Error::ModulusChainTooLarge`] /
    ///   [`Error::NotInvertible`] from [`CrtBasis::new`];
    /// * [`Error::InvalidModulus`] for out-of-range limb values;
    /// * [`Error::NoPrimitiveRoot`] when a limb is not `≡ 1 (mod 2n)`.
    pub fn new(n: usize, limb_values: &[u64]) -> Result<Self> {
        let moduli: Vec<Modulus> = limb_values
            .iter()
            .map(|&q| Modulus::new(q))
            .collect::<Result<_>>()?;
        let crt = CrtBasis::new(&moduli)?;
        let tables: Vec<Arc<NttTable>> = moduli
            .iter()
            .map(|&q| NttTable::cached(n, q))
            .collect::<Result<_>>()?;
        let mut drop_inv = Vec::with_capacity(moduli.len());
        for (k, qk) in moduli.iter().enumerate() {
            let row: Vec<u64> = moduli[..k]
                .iter()
                .map(|qi| qi.inv_mod(qk.value()))
                .collect::<Result<_>>()?;
            drop_inv.push(row);
        }
        Ok(Self {
            inner: Arc::new(ChainInner {
                n,
                tables,
                crt,
                drop_inv,
            }),
        })
    }

    /// Polynomial degree `n` every limb plane has.
    #[inline]
    pub fn degree(&self) -> usize {
        self.inner.n
    }

    /// Number of limbs `l`.
    #[inline]
    pub fn limbs(&self) -> usize {
        self.inner.crt.limbs()
    }

    /// Limb modulus `q_i`.
    #[inline]
    pub fn modulus(&self, i: usize) -> &Modulus {
        &self.inner.crt.moduli()[i]
    }

    /// All limb moduli, in chain order.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        self.inner.crt.moduli()
    }

    /// NTT tables for limb `i`.
    #[inline]
    pub fn table(&self, i: usize) -> &NttTable {
        &self.inner.tables[i]
    }

    /// The shared (memoized) table handles, one per limb.
    #[inline]
    pub fn tables(&self) -> &[Arc<NttTable>] {
        &self.inner.tables
    }

    /// The CRT basis backing cross-limb composition.
    #[inline]
    pub fn crt(&self) -> &CrtBasis {
        &self.inner.crt
    }

    /// The composed ciphertext modulus `Q = Π q_i` (exact; `< 2^127`).
    #[inline]
    pub fn big_q(&self) -> u128 {
        self.inner.crt.big_q()
    }

    /// Bit width of `Q` — the `log q` every noise-budget and
    /// decomposition-level formula consumes.
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.inner.crt.total_bits()
    }

    /// `ceil(log_base(Q))`: base-`base` digits needed to cover `[0, Q)`
    /// over the *composed* modulus. For one limb this is exactly
    /// [`ModulusChain::rns_decomposition_levels`], which multi-limb key
    /// switching uses instead.
    pub fn decomposition_levels(&self, base: u64) -> usize {
        assert!(base >= 2 && base.is_power_of_two());
        let b_bits = base.trailing_zeros();
        self.total_bits().div_ceil(b_bits) as usize
    }

    /// `ceil(log_base(q_i))`: base-`base` digits needed to cover limb `i`'s
    /// residue range `[0, q_i)` in the RNS-native decomposition.
    pub fn limb_decomposition_levels(&self, base: u64, i: usize) -> usize {
        assert!(base >= 2 && base.is_power_of_two());
        let b_bits = base.trailing_zeros();
        self.modulus(i).bits().div_ceil(b_bits) as usize
    }

    /// Total digit count `Σ_i ceil(log_base(q_i))` of the per-limb
    /// (`q̂_i`) RNS decomposition — the number of key-switch pairs a Galois
    /// key carries and the digit polynomials one `HE_Rotate` processes.
    /// Equals [`ModulusChain::decomposition_levels`] for a single limb.
    pub fn rns_decomposition_levels(&self, base: u64) -> usize {
        (0..self.limbs())
            .map(|i| self.limb_decomposition_levels(base, i))
            .sum()
    }

    /// Validates a digit-decomposition base against this chain: it must be
    /// a power of two ≥ 2 and strictly below every limb (digits are lifted
    /// limb-wise, so they must be valid residues everywhere).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDecompositionBase`] otherwise.
    pub fn check_decomposition_base(&self, base: u64) -> Result<()> {
        if base < 2 || !base.is_power_of_two() || self.moduli().iter().any(|q| base >= q.value()) {
            return Err(Error::InvalidDecompositionBase(base));
        }
        Ok(())
    }

    /// Errors unless `other` is the same chain (degree and primes).
    pub fn check_same(&self, other: &ModulusChain) -> Result<()> {
        if self == other {
            Ok(())
        } else {
            Err(Error::ParameterMismatch)
        }
    }

    fn check_poly(&self, p: &RnsPoly) -> Result<()> {
        if p.limbs() != self.limbs() || p.degree() != self.degree() {
            return Err(Error::ParameterMismatch);
        }
        Ok(())
    }

    /// Drops the last *live* limb of an evaluation-form polynomial in
    /// place, dividing by it exactly rounded: the one divide-and-round of
    /// the engine — `HE_ModSwitch` on the data chain and the hybrid key
    /// switch's `P`-rescale on a key-switch chain. With `k` live limbs (`k`
    /// may be below the chain length for an already-switched polynomial)
    /// and `q_last = q_{k-1}`, every composed coefficient `c` becomes
    /// `round(c / q_last)` over the surviving prefix `Q' = q_0 ⋯ q_{k-2}`:
    ///
    /// `c'_i = (c_i − center(c_last)) · q_last⁻¹  (mod q_i)`
    ///
    /// (`c − center(c_last)` is the multiple of `q_last` nearest `c`). Only
    /// the dropped plane leaves evaluation form: it is inverse-transformed
    /// in place, and for each surviving limb its centred lift onto `q_i` is
    /// transformed in `tmp` and subtracted before the multiply by
    /// `q_last⁻¹`. The NTT is linear and both sides are canonical, so the
    /// surviving planes are bit for bit the forward transforms of the
    /// coefficient-form formula's — at `k` plane transforms instead of the
    /// `2k − 1` of a round trip through coefficient form. The polynomial
    /// shrinks by one limb plane (limb-major storage makes the drop a
    /// truncation).
    ///
    /// # Errors
    ///
    /// [`Error::WrongRepresentation`] unless in evaluation form, and
    /// [`Error::ParameterMismatch`] when fewer than two limbs are live, the
    /// polynomial has more limbs than the chain, degrees differ, or `tmp`
    /// is not one plane long.
    pub fn divide_round_by_last(&self, p: &mut RnsPoly, tmp: &mut [u64]) -> Result<()> {
        p.expect_repr(Representation::Eval)?;
        let live = p.limbs();
        let n = p.degree();
        if live < 2 || live > self.limbs() || n != self.degree() || tmp.len() != n {
            return Err(Error::ParameterMismatch);
        }
        let q_last = self.modulus(live - 1);
        let (head, tail) = p.data.split_at_mut((live - 1) * n);
        let last = &mut tail[..n];
        self.table(live - 1).inverse(last);
        for (i, plane) in head.chunks_exact_mut(n).enumerate() {
            let q = self.modulus(i);
            simd::lift_centered(tmp, last, q_last, q);
            self.table(i).forward(tmp);
            simd::sub_assign(plane, tmp, q);
            simd::mul_scalar(plane, self.inner.drop_inv[live - 1][i], q);
        }
        p.truncate_limbs(live - 1);
        Ok(())
    }
}

/// One term of [`RnsPoly::dot_pair_prefix`]: contributes `x0 ⊙ shared`
/// to the first output and `x1 ⊙ shared` to the second — a ciphertext's
/// two components against one mask, or a key pair against one digit.
#[derive(Debug, Clone, Copy)]
pub struct DotTerm<'a> {
    /// Multiplies `shared` into the first output.
    pub x0: DotOperand<'a>,
    /// Multiplies `shared` into the second output; kept as `x0` is.
    pub x1: DotOperand<'a>,
    /// The operand both products share.
    pub shared: DotOperand<'a>,
}

/// An operand of [`RnsPoly::dot_pair_prefix`], in the form its data is
/// kept in. The form follows where the data comes from, not a choice:
/// what an evaluation computes (ciphertexts, babies, hoisted digits) is
/// words, what a server holds resident (Galois keys, prepared masks) is
/// packed.
#[derive(Debug, Clone, Copy)]
pub enum DotOperand<'a> {
    /// One `u64` word per residue.
    Words(&'a RnsPoly),
    /// Each plane packed at its limb's width.
    Packed(&'a PackedPoly),
}

impl<'a> From<&'a RnsPoly> for DotOperand<'a> {
    fn from(p: &'a RnsPoly) -> Self {
        DotOperand::Words(p)
    }
}

impl<'a> From<&'a PackedPoly> for DotOperand<'a> {
    fn from(p: &'a PackedPoly) -> Self {
        DotOperand::Packed(p)
    }
}

impl<'a> DotOperand<'a> {
    fn is_packed(self) -> bool {
        matches!(self, DotOperand::Packed(_))
    }

    fn limbs(self) -> usize {
        match self {
            DotOperand::Words(p) => p.limbs,
            DotOperand::Packed(p) => p.limbs(),
        }
    }

    /// Checks the shape [`RnsPoly::dot_pair_prefix`] reads: evaluation
    /// form at degree `n`, with at least `live` planes, and a packed
    /// plane `plane(i)` under the outputs' plane `i`'s modulus.
    fn check(
        self,
        n: usize,
        live: usize,
        plane: impl Fn(usize) -> usize,
        chain: &ModulusChain,
    ) -> Result<()> {
        let (limbs, degree, repr) = match self {
            DotOperand::Words(p) => (p.limbs, p.n, p.repr),
            DotOperand::Packed(p) => (p.limbs(), p.n, p.repr),
        };
        check_repr(repr, Representation::Eval)?;
        if limbs < live || degree != n {
            return Err(Error::ParameterMismatch);
        }
        if let DotOperand::Packed(p) = self {
            if (0..live).any(|i| p.moduli[plane(i)] != chain.modulus(i).value()) {
                return Err(Error::ParameterMismatch);
            }
        }
        Ok(())
    }

    fn plane(self, i: usize) -> Plane<'a> {
        match self {
            DotOperand::Words(p) => Plane::Words(p.limb(i)),
            DotOperand::Packed(p) => Plane::Packed(p.plane(i)),
        }
    }
}

/// A polynomial kept at its limbs' widths: limb plane `i` packed as `n`
/// `wire::field_bits(q_i)`-bit little-endian fields — the wire's plane
/// layout, written by the wire's writer — the planes back to back. This
/// is how a server keeps what it holds resident: each Galois key pair
/// ([`crate::keys::GaloisKey::pairs`]) and each prepared mask
/// ([`crate::PreparedPlaintext::poly`]), so a stream of them moves
/// `w/64` of the bytes of an [`RnsPoly`] (36/64 on the bench chains).
///
/// It has no arithmetic: the lazy dot ([`RnsPoly::dot_pair_prefix`]) and
/// the plain multiply ([`RnsPoly::mul_assign_packed_prefix`]) unpack it as
/// they read it, and [`PackedPoly::unpack`] gives the `RnsPoly` back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPoly {
    bytes: Vec<u8>,
    /// Each plane's modulus, in plane order.
    moduli: Vec<u64>,
    n: usize,
    repr: Representation,
}

impl PackedPoly {
    /// Packs `poly`'s planes at the widths of `chain`'s limbs.
    ///
    /// # Errors
    ///
    /// [`Error::ParameterMismatch`] unless `poly` has `chain`'s shape.
    pub fn pack(poly: &RnsPoly, chain: &ModulusChain) -> Result<Self> {
        chain.check_poly(poly)?;
        let mut bytes = Vec::with_capacity(wire::poly_bytes(chain, chain.limbs()));
        for (plane, q) in poly.limb_planes().zip(chain.moduli()) {
            wire::push_plane(&mut bytes, plane, q.value());
        }
        Ok(Self {
            bytes,
            moduli: chain.moduli().iter().map(Modulus::value).collect(),
            n: poly.n,
            repr: poly.repr,
        })
    }

    /// The polynomial, one word per residue again.
    pub fn unpack(&self) -> RnsPoly {
        let mut out = RnsPoly::zero_with(self.limbs(), self.n, self.repr);
        for (i, plane) in out.data.chunks_exact_mut(self.n).enumerate() {
            simd::unpack_plane(self.plane(i), plane, self.moduli[i]);
        }
        out
    }

    /// Number of limb planes.
    pub fn limbs(&self) -> usize {
        self.moduli.len()
    }

    /// Ring degree `n`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Representation of every plane.
    pub fn representation(&self) -> Representation {
        self.repr
    }

    /// Bytes of packed residues held: `Σ_i n·w_i/8`, as on the wire.
    pub fn byte_size(&self) -> usize {
        self.bytes.len()
    }

    /// Plane `i`'s `n·w_i/8` bytes.
    pub(crate) fn plane(&self, i: usize) -> &[u8] {
        let bytes = |q: &u64| self.n * wire::field_bits(*q) / 8;
        let start: usize = self.moduli[..i].iter().map(bytes).sum();
        &self.bytes[start..start + bytes(&self.moduli[i])]
    }
}

/// Which plane of `x0`/`x1` the last output plane of
/// [`RnsPoly::dot_pair_prefix`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneAlign {
    /// Plane `i` everywhere: operands are the outputs' chain, or a
    /// shallower level of it.
    Prefix,
    /// The outputs live on a per-level key-switch chain
    /// `[q_0, …, q_{live−1}, P]` and `x0`/`x1` on the full one: the
    /// special plane is each chain's last, at different indices below
    /// level 0, so plain prefix alignment would pair `P` with a foreign
    /// modulus.
    SpecialLast,
}

/// A polynomial in `Z_Q[x]/(x^n + 1)` stored as `l` contiguous limb planes
/// (limb-major, stride `n`), with one representation tag shared by every
/// plane — limbs always move through the NTT together.
///
/// Every operation takes the [`ModulusChain`] the polynomial belongs to
/// and runs the matching [`crate::simd`] kernel over the limb planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    data: Vec<u64>,
    n: usize,
    limbs: usize,
    repr: Representation,
}

impl RnsPoly {
    /// The zero polynomial for a chain, in the given representation.
    pub fn zero(chain: &ModulusChain, repr: Representation) -> Self {
        Self::zero_with(chain.limbs(), chain.degree(), repr)
    }

    /// The zero polynomial with explicit shape (scratch-pool constructor).
    pub fn zero_with(limbs: usize, n: usize, repr: Representation) -> Self {
        Self {
            data: vec![0; limbs * n],
            n,
            limbs,
            repr,
        }
    }

    /// Wraps a raw limb-major buffer of length `limbs · n` (values must be
    /// reduced per limb).
    ///
    /// # Panics
    ///
    /// Panics if the buffer length is not `limbs · n`.
    pub fn from_data(data: Vec<u64>, limbs: usize, n: usize, repr: Representation) -> Self {
        assert_eq!(data.len(), limbs * n, "buffer must be limbs * n words");
        Self {
            data,
            n,
            limbs,
            repr,
        }
    }

    /// Builds a polynomial where limb `i`, coefficient `j` is `f(i, j)`
    /// (values must already be reduced mod `q_i`).
    pub fn from_fn(
        chain: &ModulusChain,
        repr: Representation,
        mut f: impl FnMut(usize, usize) -> u64,
    ) -> Self {
        let (l, n) = (chain.limbs(), chain.degree());
        let mut data = Vec::with_capacity(l * n);
        for i in 0..l {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        Self {
            data,
            n,
            limbs: l,
            repr,
        }
    }

    /// Number of limb planes.
    #[inline]
    pub fn limbs(&self) -> usize {
        self.limbs
    }

    /// Degree bound `n` (the per-limb stride).
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Current representation (shared by all limbs).
    #[inline]
    pub fn representation(&self) -> Representation {
        self.repr
    }

    /// Overwrites the representation tag without touching residues (the
    /// escape hatch the scratch-reuse hot path needs to recycle a buffer
    /// across domains; callers vouch for the claimed representation).
    #[inline]
    pub fn set_representation(&mut self, repr: Representation) {
        self.repr = repr;
    }

    /// The whole contiguous limb-major storage.
    #[inline]
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Mutable contiguous storage. Callers must keep limbs reduced.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Consumes the polynomial, returning its storage.
    pub fn into_data(self) -> Vec<u64> {
        self.data
    }

    /// Read view of limb plane `i`.
    #[inline]
    pub fn limb(&self, i: usize) -> &[u64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutable view of limb plane `i`.
    #[inline]
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// Iterator over stride-`n` limb views.
    pub fn limb_planes(&self) -> impl Iterator<Item = &[u64]> {
        self.data.chunks_exact(self.n)
    }

    /// Zeroes every residue in place, keeping the representation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0);
    }

    /// Copies residues and representation from `other` without
    /// reallocating.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn copy_from(&mut self, other: &RnsPoly) {
        self.data.copy_from_slice(&other.data);
        self.repr = other.repr;
    }

    /// Applies the evaluation-domain slot permutation limb-by-limb:
    /// `self[limb][j] = src[limb][perm[j]]` (the Galois automorphism; the
    /// permutation depends only on `n`, so one table serves every limb).
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn permute_from(&mut self, src: &RnsPoly, perm: &[u32]) {
        assert_eq!(self.data.len(), src.data.len());
        assert_eq!(self.n, src.n);
        assert_eq!(perm.len(), self.n);
        for (dst, s) in self
            .data
            .chunks_exact_mut(self.n)
            .zip(src.data.chunks_exact(self.n))
        {
            for (d, &i) in dst.iter_mut().zip(perm) {
                *d = s[i as usize];
            }
        }
        self.repr = src.repr;
    }

    /// Checks the representation, erroring otherwise.
    pub fn expect_repr(&self, expected: Representation) -> Result<()> {
        check_repr(self.repr, expected)
    }

    /// Converts to evaluation form in place, one NTT per limb plane
    /// (no-op if already there).
    pub fn to_eval(&mut self, chain: &ModulusChain) {
        self.forward_except(chain, None);
    }

    /// [`RnsPoly::to_eval`] of every plane but `keep`, which already holds
    /// evaluation-form residues — a hybrid digit's own plane, written by
    /// [`RnsPoly::hybrid_own_planes_into`].
    pub(crate) fn forward_except(&mut self, chain: &ModulusChain, keep: Option<usize>) {
        if self.repr == Representation::Coeff {
            for (i, plane) in self.data.chunks_exact_mut(self.n).enumerate() {
                if keep != Some(i) {
                    chain.table(i).forward(plane);
                }
            }
            self.repr = Representation::Eval;
        }
    }

    /// Converts to coefficient form in place, one inverse NTT per limb
    /// plane (no-op if already there).
    pub fn to_coeff(&mut self, chain: &ModulusChain) {
        if self.repr == Representation::Eval {
            for (i, plane) in self.data.chunks_exact_mut(self.n).enumerate() {
                chain.table(i).inverse(plane);
            }
            self.repr = Representation::Coeff;
        }
    }

    /// Drops limb planes past `limbs`, keeping the prefix in place (planes
    /// are limb-major, so this is a truncation; capacity is retained for
    /// reuse). No-op when already at or below `limbs`.
    pub fn truncate_limbs(&mut self, limbs: usize) {
        if limbs < self.limbs {
            self.data.truncate(limbs * self.n);
            self.limbs = limbs;
        }
    }

    /// Resizes to exactly `limbs` planes: truncates the suffix or appends
    /// zeroed planes (reusing retained capacity where possible). Callers
    /// overwriting the contents afterwards (scratch-style reuse) are the
    /// intended audience — grown planes are *zero*, not valid residues of
    /// anything.
    pub fn resize_limbs(&mut self, limbs: usize) {
        if limbs != self.limbs {
            self.data.resize(limbs * self.n, 0);
            self.limbs = limbs;
        }
    }

    fn check_binary(&self, other: &RnsPoly, chain: &ModulusChain) -> Result<()> {
        chain.check_poly(self)?;
        chain.check_poly(other)?;
        other.expect_repr(self.repr)
    }

    /// `self += other` limb-wise.
    ///
    /// # Errors
    ///
    /// [`Error::WrongRepresentation`] on a representation mismatch,
    /// [`Error::ParameterMismatch`] on a shape/chain mismatch.
    pub fn add_assign(&mut self, other: &RnsPoly, chain: &ModulusChain) -> Result<()> {
        self.check_binary(other, chain)?;
        for (i, (a, b)) in self
            .data
            .chunks_exact_mut(self.n)
            .zip(other.limb_planes())
            .enumerate()
        {
            simd::add_assign(a, b, chain.modulus(i));
        }
        Ok(())
    }

    /// `self -= other` limb-wise.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RnsPoly::add_assign`].
    pub fn sub_assign(&mut self, other: &RnsPoly, chain: &ModulusChain) -> Result<()> {
        self.check_binary(other, chain)?;
        for (i, (a, b)) in self
            .data
            .chunks_exact_mut(self.n)
            .zip(other.limb_planes())
            .enumerate()
        {
            simd::sub_assign(a, b, chain.modulus(i));
        }
        Ok(())
    }

    /// Negates every residue limb-wise in place.
    pub fn negate(&mut self, chain: &ModulusChain) {
        for (i, a) in self.data.chunks_exact_mut(self.n).enumerate() {
            simd::negate(a, chain.modulus(i));
        }
    }

    /// `self *= other` pointwise limb-wise; both must be in evaluation
    /// form.
    ///
    /// # Errors
    ///
    /// [`Error::WrongRepresentation`] unless both operands are in
    /// evaluation form, [`Error::ParameterMismatch`] on a shape mismatch.
    pub fn mul_assign_pointwise(&mut self, other: &RnsPoly, chain: &ModulusChain) -> Result<()> {
        self.expect_repr(Representation::Eval)?;
        self.check_binary(other, chain)?;
        for (i, (a, b)) in self
            .data
            .chunks_exact_mut(self.n)
            .zip(other.limb_planes())
            .enumerate()
        {
            simd::mul_pointwise(a, b, chain.modulus(i));
        }
        Ok(())
    }

    /// Fused multiply-accumulate: `self += a * b` pointwise limb-wise, all
    /// in evaluation form — the key-switch inner loop.
    ///
    /// # Errors
    ///
    /// [`Error::WrongRepresentation`] unless all three are in evaluation
    /// form, [`Error::ParameterMismatch`] on a shape mismatch.
    pub fn fma_pointwise(&mut self, a: &RnsPoly, b: &RnsPoly, chain: &ModulusChain) -> Result<()> {
        self.expect_repr(Representation::Eval)?;
        a.expect_repr(Representation::Eval)?;
        b.expect_repr(Representation::Eval)?;
        chain.check_poly(self)?;
        chain.check_poly(a)?;
        chain.check_poly(b)?;
        for (i, ((r, x), y)) in self
            .data
            .chunks_exact_mut(self.n)
            .zip(a.limb_planes())
            .zip(b.limb_planes())
            .enumerate()
        {
            simd::fma_pointwise(r, x, y, chain.modulus(i));
        }
        Ok(())
    }

    /// `self *= other` pointwise over *self's* planes only; `other` may
    /// carry more planes (live at a shallower level) — its prefix is read
    /// and the surplus ignored. This is how full-level precomputations
    /// (prepared plaintexts, key-switch pairs) apply to modulus-switched
    /// ciphertexts without re-preparation: limb-major planes make the
    /// level-`ℓ` image of a lifted polynomial exactly its first
    /// `live` planes.
    ///
    /// # Errors
    ///
    /// [`Error::WrongRepresentation`] unless both are in evaluation form,
    /// [`Error::ParameterMismatch`] unless `chain` matches `self`'s shape
    /// and `other` covers at least `self`'s planes.
    pub fn mul_assign_pointwise_prefix(
        &mut self,
        other: &RnsPoly,
        chain: &ModulusChain,
    ) -> Result<()> {
        self.expect_repr(Representation::Eval)?;
        other.expect_repr(Representation::Eval)?;
        chain.check_poly(self)?;
        if other.limbs() < self.limbs() || other.degree() != self.n {
            return Err(Error::ParameterMismatch);
        }
        for (i, (a, b)) in self
            .data
            .chunks_exact_mut(self.n)
            .zip(other.limb_planes())
            .enumerate()
        {
            simd::mul_pointwise(a, b, chain.modulus(i));
        }
        Ok(())
    }

    /// [`RnsPoly::mul_assign_pointwise_prefix`] by a packed operand — a
    /// prepared mask — each plane unpacked block by block as it is read.
    ///
    /// # Errors
    ///
    /// As [`RnsPoly::mul_assign_pointwise_prefix`]; also
    /// [`Error::ParameterMismatch`] when a plane of `other` was packed
    /// under another modulus than `chain`'s.
    pub fn mul_assign_packed_prefix(
        &mut self,
        other: &PackedPoly,
        chain: &ModulusChain,
    ) -> Result<()> {
        self.expect_repr(Representation::Eval)?;
        chain.check_poly(self)?;
        DotOperand::Packed(other).check(self.n, self.limbs, |i| i, chain)?;
        for (i, a) in self.data.chunks_exact_mut(self.n).enumerate() {
            simd::mul_pointwise_packed(a, other.plane(i), chain.modulus(i));
        }
        Ok(())
    }

    /// CRT-composes coefficient `idx` across limbs into its value in
    /// `[0, Q)` (coefficient or evaluation index, caller's semantics).
    pub fn compose_coeff(&self, chain: &ModulusChain, idx: usize) -> u128 {
        let mut residues = [0u64; crate::arith::MAX_RNS_LIMBS];
        for (r, plane) in residues[..self.limbs]
            .iter_mut()
            .zip(self.data.chunks_exact(self.n))
        {
            *r = plane[idx];
        }
        chain.crt().compose(&residues[..self.limbs])
    }

    /// RNS-native (per-limb `q̂_i`) digit decomposition — the key-switch
    /// decomposition that never leaves limb-local `u64` arithmetic.
    ///
    /// Writes `Σ_i ceil(log_base q_i)` digit polynomials, ordered
    /// limb-major: for limb `i`, coefficient `j`, the normalized residue
    /// `v = [q̂_i^{-1}·c]_{q_i}` (one multiplication by a constant:
    /// `simd::mul_scalar`) is split into base-`base` digits
    /// (`simd::peel_digit`), each replicated across every limb plane of
    /// its digit polynomial. Correctness rests on the CRT interpolation
    /// `c ≡ Σ_i q̂_i·v_i (mod Q)`, so pairing digit `(i, d)` with a key
    /// that encrypts `base^d·q̂_i·s(x^g)` reconstructs `c·s(x^g)` exactly —
    /// no Garner composition, no 128-bit arithmetic anywhere.
    ///
    /// For one limb `q̂_0 = 1`, and this degenerates to exactly the
    /// historical word-shift extraction (bit-identical digits).
    ///
    /// `self` may live at a reduced level — carry fewer limb planes than
    /// `chain` — in which case only the live limbs are decomposed
    /// (`Σ_{i<live} ceil(log_base q_i)` digits, each spanning the live
    /// planes). The normalizer stays the **full-chain** `q̂_i^{-1}`:
    /// `q̂_i = Q/q_i` factors as `(Q_live/q_i)·Π_{dropped} q_m`, so digits
    /// normalized against the full chain pair exactly with level-0 Galois
    /// keys (which encrypt `A^d·q̂_i·s(x^g)`) restricted to the live
    /// planes — mod switching never invalidates key material.
    ///
    /// # Errors
    ///
    /// [`Error::WrongRepresentation`] if not in coefficient form,
    /// [`Error::InvalidDecompositionBase`] for a bad base, and
    /// [`Error::ParameterMismatch`] if `digits` has the wrong shape (they
    /// must mirror `self`'s live planes) or `self` has more limbs than the
    /// chain.
    pub fn rns_decompose_into(
        &self,
        base: u64,
        chain: &ModulusChain,
        digits: &mut [RnsPoly],
    ) -> Result<()> {
        self.expect_repr(Representation::Coeff)?;
        if self.limbs > chain.limbs() || self.n != chain.degree() {
            return Err(Error::ParameterMismatch);
        }
        chain.check_decomposition_base(base)?;
        let total: usize = (0..self.limbs)
            .map(|i| chain.limb_decomposition_levels(base, i))
            .sum();
        if digits.len() != total {
            return Err(Error::ParameterMismatch);
        }
        for d in digits.iter_mut() {
            if d.limbs != self.limbs || d.n != self.n {
                return Err(Error::ParameterMismatch);
            }
            d.repr = Representation::Coeff;
        }
        let log_base = base.trailing_zeros();
        let n = self.n;
        let mut rest = digits;
        for (i, plane) in self.limb_planes().enumerate() {
            let levels_i = chain.limb_decomposition_levels(base, i);
            let (limb_digits, tail) = rest.split_at_mut(levels_i);
            rest = tail;
            // The normalized residues go to the first plane of the limb's
            // top digit, and the lower digits are peeled off them there:
            // what is left is the top digit.
            let (top, lower) = limb_digits
                .split_last_mut()
                .expect("a limb has at least one digit");
            let v = &mut top.data[..n];
            v.copy_from_slice(plane);
            simd::mul_scalar(v, chain.crt().qhat_inv(i), chain.modulus(i));
            for digit in lower.iter_mut() {
                simd::peel_digit(v, &mut digit.data[..n], log_base);
            }
            debug_assert!(
                v.iter().all(|&rem| rem < base),
                "residue exceeded base^levels"
            );
            for digit in limb_digits.iter_mut() {
                let (first, replicas) = digit.data.split_at_mut(n);
                for replica in replicas.chunks_exact_mut(n) {
                    replica.copy_from_slice(first);
                }
            }
        }
        Ok(())
    }

    /// Hybrid (special-prime) key-switch decomposition: one digit per
    /// live limb, spread across the key-switch chain `[q_0 … q_{live-1}, P]`.
    ///
    /// For live limb `i`, coefficient `j`, the normalized residue
    /// `v = [q̂_i^{-1}·c]_{q_i}` (full-chain `q̂_i`, exactly as
    /// [`RnsPoly::rns_decompose_into`] — level-0 keys serve every level)
    /// is taken **centered** (`v_c ∈ (−q_i/2, q_i/2]`) and lifted into
    /// every plane of digit `i` over `ks_chain`. No base-`A` split: the
    /// digit carries the full residue, and the special prime `P` — which
    /// divides the key's signal `P·q̂_i·s(x^g)` — absorbs the
    /// `Σ_i v_i·e_i` key-noise bill that the base split used to control.
    /// Reconstruction is exact over the *extended* modulus:
    /// `Σ_i v_i·P·q̂_i ≡ P·c (mod P·Q_live)`, because `v_i ≡ [q̂_i^{-1}c]_{q_i}`
    /// and `q̂_i ≡ 0` modulo every other limb (and modulo nothing times `P`
    /// — the `P` factor is explicit in the key's signal).
    ///
    /// Plane `i` of digit `i` — the digit's *own* plane, `v` itself — is
    /// not written here: it is `q̂_i⁻¹` times `c`'s plane `i` in either
    /// form, and [`RnsPoly::hybrid_own_planes_into`] writes it from the
    /// evaluation form, where it needs no transform. `self`'s planes are
    /// overwritten by the normalized residues.
    ///
    /// `digits` must hold exactly `live` polynomials of `live + 1` planes
    /// each; their other planes come out in coefficient form on `ks_chain`,
    /// for a forward transform that skips the own plane.
    ///
    /// # Errors
    ///
    /// [`Error::WrongRepresentation`] if not in coefficient form, and
    /// [`Error::ParameterMismatch`] if `ks_chain` is not `self`'s live
    /// prefix of `data_chain` extended by one limb, or `digits` has the
    /// wrong shape.
    pub fn hybrid_decompose_into(
        &mut self,
        data_chain: &ModulusChain,
        ks_chain: &ModulusChain,
        digits: &mut [RnsPoly],
    ) -> Result<()> {
        self.expect_repr(Representation::Coeff)?;
        let (live, n) = (self.limbs, self.n);
        if live > data_chain.limbs()
            || n != data_chain.degree()
            || ks_chain.limbs() != live + 1
            || ks_chain.degree() != n
            || digits.len() != live
        {
            return Err(Error::ParameterMismatch);
        }
        for i in 0..live {
            if ks_chain.modulus(i).value() != data_chain.modulus(i).value() {
                return Err(Error::ParameterMismatch);
            }
        }
        for d in digits.iter_mut() {
            if d.limbs != live + 1 || d.n != n {
                return Err(Error::ParameterMismatch);
            }
            d.repr = Representation::Coeff;
        }
        for ((i, digit), v) in digits
            .iter_mut()
            .enumerate()
            .zip(self.data.chunks_exact_mut(n))
        {
            let q_i = data_chain.modulus(i);
            simd::mul_scalar(v, data_chain.crt().qhat_inv(i), q_i);
            let (before, rest) = digit.data.split_at_mut(i * n);
            let others = (0..i).chain(i + 1..=live);
            let planes = before
                .chunks_exact_mut(n)
                .chain(rest[n..].chunks_exact_mut(n));
            for (k, plane) in others.zip(planes) {
                simd::lift_centered(plane, v, q_i, ks_chain.modulus(k));
            }
        }
        Ok(())
    }

    /// The own planes of [`RnsPoly::hybrid_decompose_into`]'s digits, from
    /// the evaluation form of `c` (`self`): plane `i` of digit `i` is
    /// `[q̂_i⁻¹·c]_{q_i}`, and the NTT is linear, so its transform is one
    /// constant multiply of `self`'s plane `i`: bit for bit the transform
    /// of the coefficient-form residue, without running it. Every other
    /// plane is left alone.
    ///
    /// # Errors
    ///
    /// [`Error::WrongRepresentation`] unless in evaluation form, and
    /// [`Error::ParameterMismatch`] if `self` has more limbs than
    /// `data_chain` or `digits` is not `live` polynomials of `live + 1`
    /// planes.
    pub fn hybrid_own_planes_into(
        &self,
        data_chain: &ModulusChain,
        digits: &mut [RnsPoly],
    ) -> Result<()> {
        self.expect_repr(Representation::Eval)?;
        let (live, n) = (self.limbs, self.n);
        if live > data_chain.limbs()
            || n != data_chain.degree()
            || digits.len() != live
            || digits.iter().any(|d| d.limbs != live + 1 || d.n != n)
        {
            return Err(Error::ParameterMismatch);
        }
        for ((i, digit), plane) in digits.iter_mut().enumerate().zip(self.limb_planes()) {
            let own = digit.limb_mut(i);
            own.copy_from_slice(plane);
            simd::mul_scalar(own, data_chain.crt().qhat_inv(i), data_chain.modulus(i));
        }
        Ok(())
    }

    /// The lazy two-output inner product under every mask sum and every
    /// key switch: `r0 += Σ_k x0_k ⊙ s_k` and `r1 += Σ_k x1_k ⊙ s_k` over
    /// the outputs' planes, all in evaluation form, where `term(k)` yields
    /// the `k`-th [`DotTerm`] and `s_k` is its shared operand — read
    /// through the Galois slot permutation `gather` when one is given
    /// (`s_k[j] = shared_k[gather[j]]`, the hoisted replay's automorphism
    /// fused into the sum).
    ///
    /// One pass per limb plane sums all `terms` products unreduced — in
    /// `u128`, reducing once per coefficient (early every
    /// [`Modulus::lazy_dot_terms`] terms), or, where the CPU and the limb
    /// allow, on the AVX-512 IFMA multiplier — so every residue written is the
    /// canonical `(r + Σ_k x_k·s_k) mod q` that `terms` sequential
    /// [`RnsPoly::fma_pointwise`] calls write — same bits, a fraction of
    /// the Barrett reductions.
    ///
    /// Operands may carry more planes than the outputs (full-level masks
    /// and key pairs against a modulus-switched ciphertext): plane `i` of
    /// the outputs reads plane `i` of every operand, except that under
    /// [`PlaneAlign::SpecialLast`] the outputs' last plane — the special
    /// prime of a per-level key-switch chain — reads the **last** plane of
    /// `x0`/`x1`, where the full key-switch chain keeps it.
    ///
    /// Each operand is read in the form it is kept in ([`DotOperand`]): a
    /// packed plane is unpacked as it streams past — in registers under the
    /// IFMA kernel, a block at a time on the stack otherwise — so a key or
    /// mask moves at its limbs' widths. Every term has the same forms,
    /// `x0` and `x1` alike; at most one side of a product is packed (keys
    /// meet words digits, masks words ciphertexts), and an operand read
    /// through `gather` is words.
    ///
    /// # Errors
    ///
    /// [`Error::WrongRepresentation`] unless everything is in evaluation
    /// form, [`Error::ParameterMismatch`] unless `chain` matches the
    /// outputs' shape, every operand covers the outputs' planes at their
    /// degree (a packed one under the same moduli), the forms are as
    /// above, and `gather` (when given) has one entry per coefficient.
    pub fn dot_pair_prefix<'a>(
        r0: &mut RnsPoly,
        r1: &mut RnsPoly,
        terms: usize,
        term: impl Fn(usize) -> DotTerm<'a>,
        gather: Option<&[u32]>,
        align: PlaneAlign,
        chain: &ModulusChain,
    ) -> Result<()> {
        let (live, n) = (r0.limbs, r0.n);
        for r in [&*r0, &*r1] {
            r.expect_repr(Representation::Eval)?;
            chain.check_poly(r)?;
        }
        if gather.is_some_and(|perm| perm.len() != n) {
            return Err(Error::ParameterMismatch);
        }
        // The plane of an operand with `limbs` planes under output plane `i`.
        let x_index = |limbs: usize, i: usize| match align {
            PlaneAlign::SpecialLast if i + 1 == live => limbs - 1,
            _ => i,
        };
        let forms = |t: DotTerm| (t.x0.is_packed(), t.shared.is_packed());
        let first = (terms > 0).then(|| forms(term(0)));
        for k in 0..terms {
            let t = term(k);
            if Some(forms(t)) != first
                || t.x1.is_packed() != t.x0.is_packed()
                || t.shared.is_packed() && (gather.is_some() || t.x0.is_packed())
            {
                return Err(Error::ParameterMismatch);
            }
            for x in [t.x0, t.x1] {
                x.check(n, live, |i| x_index(x.limbs(), i), chain)?;
            }
            t.shared.check(n, live, |i| i, chain)?;
        }
        let planes = r0.data.chunks_exact_mut(n).zip(r1.data.chunks_exact_mut(n));
        for (i, (p0, p1)) in planes.enumerate() {
            let x_plane = |x: DotOperand<'a>| x.plane(x_index(x.limbs(), i));
            let plane_term = |k| {
                let t = term(k);
                DotPlanes {
                    x0: x_plane(t.x0),
                    x1: x_plane(t.x1),
                    shared: t.shared.plane(i),
                }
            };
            simd::dot_pair(p0, p1, terms, plane_term, gather, chain.modulus(i));
        }
        Ok(())
    }

    /// Largest centered absolute value of any composed coefficient
    /// (`|c|` against `Q/2`; coefficient form only) — the exact noise
    /// measurement primitive.
    ///
    /// # Errors
    ///
    /// [`Error::WrongRepresentation`] if in evaluation form.
    pub fn inf_norm_centered(&self, chain: &ModulusChain) -> Result<u128> {
        self.expect_repr(Representation::Coeff)?;
        let q = chain.big_q();
        let half = q / 2;
        let mut max = 0u128;
        for j in 0..self.n {
            let c = self.compose_coeff(chain, j);
            let mag = if c > half { q - c } else { c };
            max = max.max(mag);
        }
        Ok(max)
    }
}

fn check_repr(found: Representation, expected: Representation) -> Result<()> {
    if found != expected {
        return Err(Error::WrongRepresentation {
            expected: repr_name(expected),
            found: repr_name(found),
        });
    }
    Ok(())
}

fn repr_name(r: Representation) -> &'static str {
    match r {
        Representation::Coeff => "coefficient",
        Representation::Eval => "evaluation",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::generate_ntt_primes;

    /// Chain of `bits.len()` distinct primes (homogeneous sizes in tests).
    fn chain(n: usize, bits: &[u32]) -> ModulusChain {
        let values = generate_ntt_primes(bits[0], n, bits.len()).unwrap();
        ModulusChain::new(n, &values).unwrap()
    }

    #[test]
    fn chain_equality_is_structural() {
        let a = chain(64, &[30, 30]);
        let b = chain(64, &[30, 30]);
        let c = chain(64, &[36]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.check_same(&b).is_ok());
        assert!(a.check_same(&c).is_err());
    }

    /// A one-limb `RnsPoly` against a reference on `Vec<u64>` that
    /// computes with [`Modulus`]' scalar methods and never enters
    /// [`crate::simd`] (the transforms go through the limb's [`NttTable`],
    /// which `simd_equivalence` holds against the scalar backend).
    #[test]
    fn single_limb_ops_match_poly_kernels() {
        let ch = chain(64, &[50]);
        let q = *ch.modulus(0);
        // Residues across the whole range (`q − 1` included), so sums and
        // differences wrap and every conditional correction is taken.
        let spread = |mul: u64| -> Vec<u64> {
            let mut v: Vec<u64> = (1..=64u64)
                .map(|i| i.wrapping_mul(mul) % q.value())
                .collect();
            v[0] = q.value() - 1;
            v
        };
        let (vals_a, vals_b) = (spread(0x9e37_79b9_7f4a_7c15), spread(0xbf58_476d_1ce4_e5b9));

        let mut r = RnsPoly::from_data(vals_a.clone(), 1, 64, Representation::Coeff);
        let rb = RnsPoly::from_data(vals_b.clone(), 1, 64, Representation::Coeff);
        let orig = r.clone();
        let mut p = vals_a;

        r.add_assign(&rb, &ch).unwrap();
        p.iter_mut()
            .zip(&vals_b)
            .for_each(|(x, &y)| *x = q.add_mod(*x, y));
        assert_eq!(r.limb(0), &p[..]);

        r.to_eval(&ch);
        ch.table(0).forward(&mut p);
        assert_eq!(r.limb(0), &p[..]);

        let mut eb = rb.clone();
        eb.to_eval(&ch);
        let mut acc = r.clone();
        acc.fma_pointwise(&r, &eb, &ch).unwrap();
        r.mul_assign_pointwise(&eb, &ch).unwrap();
        let sum = p.clone();
        p.iter_mut()
            .zip(eb.limb(0))
            .for_each(|(x, &y)| *x = q.mul_mod(*x, y));
        assert_eq!(r.limb(0), &p[..]);
        let fused: Vec<u64> = sum.iter().zip(&p).map(|(&x, &y)| q.add_mod(x, y)).collect();
        assert_eq!(acc.limb(0), &fused[..]);

        r.to_coeff(&ch);
        ch.table(0).inverse(&mut p);
        assert_eq!(r.limb(0), &p[..]);

        r.negate(&ch);
        p.iter_mut().for_each(|x| *x = q.neg_mod(*x));
        assert_eq!(r.limb(0), &p[..]);

        r.sub_assign(&rb, &ch).unwrap();
        p.iter_mut()
            .zip(&vals_b)
            .for_each(|(x, &y)| *x = q.sub_mod(*x, y));
        assert_eq!(r.limb(0), &p[..]);

        // add then sub, and negate twice, are identities.
        let mut back = orig.clone();
        back.add_assign(&rb, &ch).unwrap();
        back.sub_assign(&rb, &ch).unwrap();
        back.negate(&ch);
        back.negate(&ch);
        assert_eq!(back, orig);
    }

    #[test]
    fn multi_limb_roundtrip_through_ntt() {
        let ch = chain(128, &[30, 30]);
        let a = RnsPoly::from_fn(&ch, Representation::Coeff, |i, j| {
            ((i * 997 + j * 31 + 5) as u64) % ch.modulus(i).value()
        });
        let mut b = a.clone();
        b.to_eval(&ch);
        assert_ne!(a, b);
        let once = b.clone();
        b.to_eval(&ch); // idempotent
        assert_eq!(b, once);
        b.to_coeff(&ch);
        assert_eq!(a, b);
    }

    /// Test-local composed-base digit extraction — the seed-era reference
    /// the retired `RnsPoly::decompose_into` implemented, replayed through
    /// the library's [`RnsPoly::compose_coeff`] helper: CRT-compose each
    /// coefficient and split the `[0, Q)` value into base digits, each
    /// replicated across every limb plane.
    fn composed_base_digits(p: &RnsPoly, base: u64, chain: &ModulusChain) -> Vec<RnsPoly> {
        assert!(base >= 2 && base.is_power_of_two(), "bad reference base");
        assert_eq!(p.representation(), Representation::Coeff);
        let levels = chain.decomposition_levels(base);
        let mut digits = vec![RnsPoly::zero(chain, Representation::Coeff); levels];
        let log_base = base.trailing_zeros();
        let mask = (base - 1) as u128;
        for j in 0..p.degree() {
            let mut rem = p.compose_coeff(chain, j);
            for digit in digits.iter_mut() {
                let v = (rem & mask) as u64;
                for i in 0..chain.limbs() {
                    digit.limb_mut(i)[j] = v;
                }
                rem >>= log_base;
            }
            assert_eq!(rem, 0, "coefficient exceeded base^levels");
        }
        digits
    }

    #[test]
    fn decompose_digits_recompose_to_value() {
        let ch = chain(32, &[30, 30]);
        let a = RnsPoly::from_fn(&ch, Representation::Coeff, |i, j| {
            ((i * 12345 + j * 678 + 9) as u64) % ch.modulus(i).value()
        });
        let base = 1u64 << 16;
        let levels = ch.decomposition_levels(base);
        assert_eq!(levels, ch.total_bits().div_ceil(16) as usize);
        let digits = composed_base_digits(&a, base, &ch);
        // Σ base^d · digit_d must CRT-compose back to the coefficient.
        for j in 0..32 {
            let mut v: u128 = 0;
            for d in (0..levels).rev() {
                v = (v << 16) + digits[d].limb(0)[j] as u128;
            }
            assert_eq!(v, a.compose_coeff(&ch, j), "coeff {j}");
        }
    }

    #[test]
    fn rns_decompose_reconstructs_on_every_plane() {
        // Σ_{i,d} base^d·q̂_i·digit_{i,d} must reproduce the original
        // residue on every limb plane — verified entirely in word
        // arithmetic, the same congruences key switching relies on.
        for bits in [&[30u32, 30][..], &[30, 31, 36][..], &[50][..]] {
            let ch = chain(32, bits);
            let a = RnsPoly::from_fn(&ch, Representation::Coeff, |i, j| {
                ((i * 5231 + j * 877 + 3) as u64) % ch.modulus(i).value()
            });
            let base = 1u64 << 16;
            let total = ch.rns_decomposition_levels(base);
            assert_eq!(
                total,
                (0..ch.limbs())
                    .map(|i| ch.limb_decomposition_levels(base, i))
                    .sum::<usize>()
            );
            let mut digits = vec![RnsPoly::zero(&ch, Representation::Coeff); total];
            a.rns_decompose_into(base, &ch, &mut digits).unwrap();
            for j in 0..32 {
                for (k, q_k) in ch.moduli().iter().enumerate() {
                    let mut acc = 0u64;
                    let mut d = 0;
                    for i in 0..ch.limbs() {
                        let mut weight = ch.crt().qhat_mod(i, k);
                        for _ in 0..ch.limb_decomposition_levels(base, i) {
                            acc = q_k.add_mod(acc, q_k.mul_mod(digits[d].limb(k)[j], weight));
                            weight = q_k.mul_mod(weight, q_k.reduce(base));
                            d += 1;
                        }
                    }
                    assert_eq!(acc, a.limb(k)[j], "bits={bits:?} coeff {j} plane {k}");
                }
            }
        }
    }

    #[test]
    fn rns_decompose_single_limb_matches_composed() {
        // One limb: the per-limb path is bit-identical to the composed
        // Garner extraction (q̂_0 = 1).
        let ch = chain(32, &[50]);
        let a = RnsPoly::from_fn(&ch, Representation::Coeff, |_, j| {
            (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) % ch.modulus(0).value()
        });
        let base = 1u64 << 20;
        let levels = ch.decomposition_levels(base);
        assert_eq!(levels, ch.rns_decomposition_levels(base));
        let mut per_limb = vec![RnsPoly::zero(&ch, Representation::Coeff); levels];
        let composed = composed_base_digits(&a, base, &ch);
        a.rns_decompose_into(base, &ch, &mut per_limb).unwrap();
        assert_eq!(composed, per_limb);
    }

    #[test]
    fn rns_decompose_rejects_wrong_digit_count() {
        let ch = chain(32, &[30, 30]);
        let a = RnsPoly::zero(&ch, Representation::Coeff);
        let total = ch.rns_decomposition_levels(1 << 16);
        let mut digits = vec![RnsPoly::zero(&ch, Representation::Coeff); total - 1];
        assert!(matches!(
            a.rns_decompose_into(1 << 16, &ch, &mut digits),
            Err(Error::ParameterMismatch)
        ));
    }

    #[test]
    fn decompose_rejects_bad_base() {
        let ch = chain(32, &[30]);
        let a = RnsPoly::zero(&ch, Representation::Coeff);
        let mut digits = vec![RnsPoly::zero(&ch, Representation::Coeff); 30];
        assert!(matches!(
            a.rns_decompose_into(3, &ch, &mut digits),
            Err(Error::InvalidDecompositionBase(3))
        ));
        assert!(matches!(
            a.rns_decompose_into(1, &ch, &mut digits),
            Err(Error::InvalidDecompositionBase(1))
        ));
    }

    #[test]
    fn decompose_rejects_base_at_least_a_limb() {
        let ch = chain(32, &[30]);
        let a = RnsPoly::zero(&ch, Representation::Coeff);
        let mut digits = vec![RnsPoly::zero(&ch, Representation::Coeff); 1];
        assert!(matches!(
            a.rns_decompose_into(1 << 30, &ch, &mut digits),
            Err(Error::InvalidDecompositionBase(_))
        ));
    }

    #[test]
    fn foreign_shapes_are_rejected() {
        let ch2 = chain(32, &[30, 30]);
        let ch1 = chain(32, &[36]);
        let mut a = RnsPoly::zero(&ch2, Representation::Eval);
        let b = RnsPoly::zero(&ch1, Representation::Eval);
        assert!(matches!(
            a.add_assign(&b, &ch2),
            Err(Error::ParameterMismatch)
        ));
        assert!(matches!(
            a.mul_assign_pointwise(&b, &ch2),
            Err(Error::ParameterMismatch)
        ));
        // Same shape, other representation.
        let c = RnsPoly::zero(&ch2, Representation::Coeff);
        assert!(matches!(
            a.add_assign(&c, &ch2),
            Err(Error::WrongRepresentation { .. })
        ));
        assert!(matches!(
            a.mul_assign_pointwise(&c, &ch2),
            Err(Error::WrongRepresentation { .. })
        ));
    }

    /// Multi-limb rotation under the RNS-native key switch decrypts to the
    /// same slots as the seed-era composed-base key switch. The old path
    /// no longer exists anywhere in the library (the Garner
    /// `RnsPoly::decompose_into` is fully retired), so it is replayed here
    /// from the [`composed_base_digits`] test helper over
    /// [`RnsPoly::compose_coeff`]: composed keys
    /// `(−(a·s + e) + A^level·s(x^g), a)` built over the full chain,
    /// Garner (compose-then-split) digit extraction, and the Lane
    /// multiply-accumulate. Moved from `tests/rns_equivalence.rs` when
    /// `decompose_into` left the public API.
    #[test]
    fn multi_limb_rotate_matches_composed_base_reference() {
        use crate::ciphertext::Ciphertext;
        use crate::encoder::BatchEncoder;
        use crate::encryptor::{Decryptor, Encryptor};
        use crate::evaluator::Evaluator;
        use crate::keys::{element_for_step, KeyGenerator};
        use crate::params::BfvParams;
        use crate::sampling::BfvRng;

        for (name, params) in BfvParams::presets(4096).unwrap() {
            let mut kg = KeyGenerator::from_seed(params.clone(), 21);
            let pk = kg.public_key().unwrap();
            let keys = kg.galois_keys_for_steps(&[1]).unwrap();
            let encoder = BatchEncoder::new(params.clone());
            let mut enc = Encryptor::from_public_key(pk, 21 ^ 0x5eed);
            let dec = Decryptor::new(kg.secret_key().clone());
            let eval = Evaluator::new(params.clone());

            let chain = params.chain();
            let vals: Vec<u64> = (0..100).map(|i| (i * 31 + 7) % 1000).collect();
            let ct = enc.encrypt(&encoder.encode(&vals).unwrap()).unwrap();

            // Engine path: RNS-native per-limb key switching.
            let mut rotated = ct.clone();
            eval.rotate_rows_into(&mut rotated, &ct, 1, &keys, &mut eval.new_scratch())
                .unwrap();

            // Reference path: composed-base key switching. Keys come from
            // an independent RNG stream — only the *decrypted slots* can
            // match, which is exactly the old-vs-new guarantee pinned
            // here. The secret key is deterministic from the seed alone.
            let s = kg.secret_key().poly().clone();
            let g = element_for_step(params.degree(), 1).unwrap();
            let perm = chain.table(0).galois_permutation(g);
            let mut s_g = RnsPoly::zero(chain, Representation::Eval);
            s_g.permute_from(&s, &perm);

            let a_base = params.a_dcmp();
            let l_cmp = chain.decomposition_levels(a_base);
            let mut rng = BfvRng::from_seed(0xc0de, params.sigma());
            let mut pairs: Vec<(RnsPoly, RnsPoly)> = Vec::with_capacity(l_cmp);
            let mut scale: Vec<u64> = vec![1; chain.limbs()];
            for level in 0..l_cmp {
                let a = rng.uniform_rns(chain, Representation::Eval);
                let mut e = rng.noise_rns(chain);
                e.to_eval(chain);
                let mut k0 = a.clone();
                k0.mul_assign_pointwise(&s, chain).unwrap();
                k0.add_assign(&e, chain).unwrap();
                k0.negate(chain);
                let mut scaled = s_g.clone();
                for (i, &sc) in scale.iter().enumerate() {
                    let q = chain.modulus(i);
                    let plane: Vec<u64> =
                        scaled.limb(i).iter().map(|&x| q.mul_mod(x, sc)).collect();
                    scaled.limb_mut(i).copy_from_slice(&plane);
                }
                k0.add_assign(&scaled, chain).unwrap();
                pairs.push((k0, a));
                if level + 1 < l_cmp {
                    for (i, sc) in scale.iter_mut().enumerate() {
                        let q = chain.modulus(i);
                        *sc = q.mul_mod(*sc, q.reduce(a_base));
                    }
                }
            }

            // Old Lane datapath: permute, INTT, Garner compose-then-split
            // (via the test-local composed-base reference — the in-library
            // Garner `decompose_into` is retired).
            let key = keys.get(g).unwrap();
            let mut ref_c0 = RnsPoly::zero(chain, Representation::Eval);
            ref_c0.permute_from(ct.c0(), key.permutation());
            let mut c1_g = RnsPoly::zero(chain, Representation::Eval);
            c1_g.permute_from(ct.c1(), key.permutation());
            c1_g.to_coeff(chain);
            let mut digits = composed_base_digits(&c1_g, a_base, chain);
            assert_eq!(digits.len(), l_cmp);
            let mut ref_c1 = RnsPoly::zero(chain, Representation::Eval);
            for (digit, (k0, k1)) in digits.iter_mut().zip(&pairs) {
                digit.to_eval(chain);
                ref_c0.fma_pointwise(digit, k0, chain).unwrap();
                ref_c1.fma_pointwise(digit, k1, chain).unwrap();
            }
            let reference = Ciphertext::new(ref_c0, ref_c1, params.clone(), *rotated.noise());

            let engine_slots = encoder.decode(&dec.decrypt_checked(&rotated).unwrap());
            let reference_slots = encoder.decode(&dec.decrypt(&reference).unwrap());
            assert_eq!(
                engine_slots, reference_slots,
                "{name}: RNS-native vs composed-base key switch diverged"
            );
        }
    }

    #[test]
    fn mod_switch_rounds_exactly() {
        // Dropping a limb must compute round(c / q_last) per coefficient,
        // verified in coefficient form against exact u128 arithmetic
        // through the CRT.
        let ch = chain(32, &[30, 31, 36]);
        let a = RnsPoly::from_fn(&ch, Representation::Coeff, |i, j| {
            ((i as u64 * 0x9e37_79b9 + j as u64 * 0x85eb_ca6b) ^ (j as u64) << 7)
                % ch.modulus(i).value()
        });
        let sub = ModulusChain::new(32, &[ch.modulus(0).value(), ch.modulus(1).value()]).unwrap();
        let mut tmp = vec![0; 32];
        let divide = |p: &RnsPoly, tmp: &mut [u64]| {
            let mut out = p.clone();
            out.to_eval(&ch);
            ch.divide_round_by_last(&mut out, tmp).unwrap();
            out.to_coeff(&ch);
            out
        };
        let b = divide(&a, &mut tmp);
        assert_eq!(b.limbs(), 2);
        let q_last = ch.modulus(2).value() as u128;
        for j in 0..32 {
            let c = a.compose_coeff(&ch, j);
            let rounded = (c + q_last / 2) / q_last;
            let expect = rounded % sub.big_q();
            assert_eq!(b.compose_coeff(&sub, j), expect, "coeff {j}");
        }
        // And a second drop keeps rounding exactly over the new prefix.
        let c2 = divide(&b, &mut tmp);
        assert_eq!(c2.limbs(), 1);
        let q1 = ch.modulus(1).value() as u128;
        for j in 0..32 {
            let c = b.compose_coeff(&sub, j);
            let expect = ((c + q1 / 2) / q1) % ch.modulus(0).value() as u128;
            assert_eq!(c2.limb(0)[j] as u128, expect, "coeff {j} second drop");
        }
        // One live limb left: nothing to drop; coefficient form and a
        // temporary of the wrong length are refused.
        let mut last = c2;
        last.to_eval(&ch);
        assert!(matches!(
            ch.divide_round_by_last(&mut last, &mut tmp),
            Err(Error::ParameterMismatch)
        ));
        assert!(matches!(
            ch.divide_round_by_last(&mut a.clone(), &mut tmp),
            Err(Error::WrongRepresentation { .. })
        ));
        let mut eval = a.clone();
        eval.to_eval(&ch);
        assert!(matches!(
            ch.divide_round_by_last(&mut eval, &mut tmp[..16]),
            Err(Error::ParameterMismatch)
        ));
    }

    #[test]
    fn prefix_kernels_read_only_live_planes() {
        let ch3 = chain(32, &[30, 31, 36]);
        // The reduced-level chain must be ch3's literal prefix (the
        // invariant the prefix kernels rely on), so build it from ch3's
        // own first two primes.
        let prefix =
            ModulusChain::new(32, &[ch3.modulus(0).value(), ch3.modulus(1).value()]).unwrap();
        let full = RnsPoly::from_fn(&ch3, Representation::Eval, |i, j| {
            ((i * 31 + j * 7 + 3) as u64) % ch3.modulus(i).value()
        });
        let mut reduced = RnsPoly::zero(&prefix, Representation::Eval);
        reduced.data_mut().copy_from_slice(&full.data()[..2 * 32]);
        let mut via_prefix = reduced.clone();
        via_prefix
            .mul_assign_pointwise_prefix(&full, &prefix)
            .unwrap();
        let mut direct = reduced.clone();
        direct.mul_assign_pointwise(&reduced, &prefix).unwrap();
        assert_eq!(via_prefix, direct, "prefix mul reads the live planes");
        // Shorter operand is rejected.
        let mut full_mut = full.clone();
        assert!(matches!(
            full_mut.mul_assign_pointwise_prefix(&reduced, &ch3),
            Err(Error::ParameterMismatch)
        ));
    }

    #[test]
    fn inf_norm_sees_big_negative_side() {
        let ch = chain(32, &[30, 30]);
        let q = ch.big_q();
        // Set coefficient 0 to Q − 5 (centered: −5) across limbs.
        let mut a = RnsPoly::zero(&ch, Representation::Coeff);
        let mut residues = [0u64; crate::arith::MAX_RNS_LIMBS];
        ch.crt().decompose_into(q - 5, &mut residues[..2]);
        for (i, &r) in residues[..2].iter().enumerate() {
            a.limb_mut(i)[0] = r;
        }
        a.limb_mut(0)[1] = 3;
        a.limb_mut(1)[1] = 3;
        assert_eq!(a.inf_norm_centered(&ch).unwrap(), 5);
    }
}
