//! Randomness for RLWE: ternary secrets, centered-binomial noise, and
//! uniform polynomials.
//!
//! The encryption noise is drawn from a centered binomial distribution
//! CBD(k) with `k = round(2σ²)`, giving variance `k/2 ≈ σ²` — the
//! independent bounded discrete Gaussian (IBDG) the paper's statistical
//! noise model assumes (§IV-B). CBD is bounded by construction
//! (`|e| ≤ k`), which is what makes the `B = 6σ` worst-case bound of
//! Table III sound.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::rns::{ModulusChain, Representation, RnsPoly};

/// Source of randomness for key generation and encryption.
///
/// Wraps a seedable PRNG so experiments are reproducible; production users
/// would seed from the OS.
#[derive(Debug)]
pub struct BfvRng {
    rng: StdRng,
    cbd_k: u32,
}

impl BfvRng {
    /// Creates a generator from a seed, with noise parameter derived from
    /// `sigma` (CBD(k), `k = round(2σ²)`).
    pub fn from_seed(seed: u64, sigma: f64) -> Self {
        let cbd_k = (2.0 * sigma * sigma).round().max(1.0) as u32;
        Self {
            rng: StdRng::seed_from_u64(seed),
            cbd_k,
        }
    }

    /// Creates a generator seeded from the OS entropy pool.
    pub fn from_entropy(sigma: f64) -> Self {
        let cbd_k = (2.0 * sigma * sigma).round().max(1.0) as u32;
        Self {
            rng: StdRng::from_os_rng(),
            cbd_k,
        }
    }

    /// The CBD parameter `k` in use.
    pub fn cbd_k(&self) -> u32 {
        self.cbd_k
    }

    /// Worst-case bound on a single noise sample (`|e| ≤ k`).
    pub fn noise_bound(&self) -> u64 {
        self.cbd_k as u64
    }

    /// Samples one CBD(k) noise value in `[-k, k]`: per chunk of up to 32
    /// of the `k` coin pairs (whole chunks of 32 first), the popcount of
    /// one masked 32-bit draw minus that of the next. The one definition
    /// of a noise draw.
    pub fn noise_sample(&mut self) -> i64 {
        let mut remaining = self.cbd_k;
        let mut acc = 0;
        while remaining > 32 {
            acc += self.coin_pairs(32);
            remaining -= 32;
        }
        acc + self.coin_pairs(remaining)
    }

    /// One chunk of `1..=32` CBD coin pairs: `popcount(a) − popcount(b)`
    /// over the chunk's bits of the next two 32-bit draws.
    #[inline(always)]
    fn coin_pairs(&mut self, chunk: u32) -> i64 {
        let mask = u32::MAX >> (32 - chunk);
        let a = self.rng.next_u32() & mask;
        let b = self.rng.next_u32() & mask;
        a.count_ones() as i64 - b.count_ones() as i64
    }

    /// Samples a polynomial uniform over `[0, Q)` in RNS form: each limb
    /// plane is drawn uniformly mod its own prime, which by CRT is exactly
    /// uniform mod the composed `Q`. The draw order — limb-major, one
    /// `random_range` per residue — is what the seeded key and transcript
    /// digests of `tests/bit_stability.rs` pin.
    pub fn uniform_rns(&mut self, chain: &ModulusChain, repr: Representation) -> RnsPoly {
        let mut out = RnsPoly::zero(chain, repr);
        fill_uniform(&mut self.rng, chain, &mut out);
        out
    }

    /// Draws a fresh 64-bit seed from this generator's stream — the seed a
    /// seeded wire encoding ships in place of a full uniform polynomial
    /// (the receiver re-expands it with [`expand_uniform`]).
    pub fn next_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Samples a ternary polynomial with coefficients in `{-1, 0, 1}`
    /// (uniform), lifted into every limb plane (coefficient form) — the
    /// RLWE secret distribution over the chain. One trit is drawn per
    /// coefficient, whatever the number of limbs.
    pub fn ternary_rns(&mut self, chain: &ModulusChain) -> RnsPoly {
        lift_draws(chain, 1, || match self.rng.random_range(0..3u8) {
            0 => 0,
            1 => 1,
            _ => -1,
        })
    }

    /// Samples a CBD(k) noise polynomial lifted into every limb plane
    /// (coefficient form). One [`BfvRng::noise_sample`] is drawn per
    /// coefficient, whatever the number of limbs, and written straight
    /// into each plane.
    pub fn noise_rns(&mut self, chain: &ModulusChain) -> RnsPoly {
        let bound = self.noise_bound();
        lift_draws(chain, bound, || self.noise_sample())
    }
}

/// A coefficient-form polynomial over `chain` whose coefficient `j` is the
/// `j`-th value `draw` returns (`|v| ≤ bound`), in every limb plane the
/// residue [`crate::arith::Modulus::from_signed`] gives it — one draw per
/// coefficient, whatever the number of limbs. The draws land in plane 0 as
/// two's-complement words and are lifted from there onto every other
/// plane, then onto plane 0 in place.
fn lift_draws(chain: &ModulusChain, bound: u64, mut draw: impl FnMut() -> i64) -> RnsPoly {
    let n = chain.degree();
    let mut out = RnsPoly::zero(chain, Representation::Coeff);
    let (raw, rest) = out.data_mut().split_at_mut(n);
    for w in raw.iter_mut() {
        *w = draw() as u64;
    }
    let moduli = chain.moduli();
    for (plane, q) in rest.chunks_exact_mut(n).zip(&moduli[1..]) {
        for (o, &w) in plane.iter_mut().zip(&*raw) {
            *o = lift_word(w, q, bound);
        }
    }
    for w in raw.iter_mut() {
        *w = lift_word(*w, &moduli[0], bound);
    }
    out
}

/// [`crate::arith::Modulus::from_signed`] of the two's-complement word
/// `w`, whose magnitude is at most `bound`. Below `q` that is `w`, plus
/// `q` when negative: no branch on the sign, so the loops over a plane
/// vectorize.
#[inline(always)]
fn lift_word(w: u64, q: &crate::arith::Modulus, bound: u64) -> u64 {
    if bound < q.value() {
        w.wrapping_add(q.value() & ((w as i64 >> 63) as u64))
    } else {
        q.from_signed(w as i64)
    }
}

/// The uniform Eval-domain polynomials a 64-bit seed stands for on the
/// wire: one dedicated `StdRng::seed_from_u64(seed)` stream, each
/// polynomial drawn limb-major over `chain` (the draw order of
/// [`BfvRng::uniform_rns`]), polynomial after polynomial. Both ends of a
/// seeded encoding run it, so the `d`-th polynomial of
/// `UniformStream::new(seed, chain)` is the *definition* of the uniform
/// component a seeded message omits: a ciphertext's `c1` or a public key's
/// `pk1` (`d = 0`, [`expand_uniform`]), or pair `d`'s `a` in a seeded
/// Galois key ([`crate::keys::SeededGaloisKey`]).
#[derive(Debug)]
pub struct UniformStream<'a> {
    rng: StdRng,
    chain: &'a ModulusChain,
}

impl<'a> UniformStream<'a> {
    /// The stream `seed` expands to over `chain`.
    pub fn new(seed: u64, chain: &'a ModulusChain) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            chain,
        }
    }

    /// The next polynomial of the stream, freshly allocated:
    /// [`UniformStream::next_into`] a zero polynomial.
    pub fn next_poly(&mut self) -> RnsPoly {
        let mut out = RnsPoly::zero(self.chain, Representation::Eval);
        self.next_into(&mut out);
        out
    }

    /// Overwrites `out` with the next polynomial of the stream (the same
    /// residues [`UniformStream::next_poly`] would return), reusing its
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics unless `out` has the chain's shape.
    pub fn next_into(&mut self, out: &mut RnsPoly) {
        assert!(
            out.limbs() == self.chain.limbs() && out.degree() == self.chain.degree(),
            "stream output must have the chain's shape"
        );
        fill_uniform(&mut self.rng, self.chain, out);
        out.set_representation(Representation::Eval);
    }
}

/// Overwrites every plane of `out` (shaped like `chain`) with residues
/// uniform mod its limb, drawn from `rng` limb-major, one `random_range`
/// per residue.
fn fill_uniform(rng: &mut StdRng, chain: &ModulusChain, out: &mut RnsPoly) {
    let n = chain.degree();
    for (q, plane) in chain
        .moduli()
        .iter()
        .zip(out.data_mut().chunks_exact_mut(n))
    {
        let q = q.value();
        for w in plane {
            *w = rng.random_range(0..q);
        }
    }
}

/// Expands a 64-bit seed into the uniform Eval-domain polynomial the seed
/// stands for on the wire: the first polynomial of its [`UniformStream`].
/// Both ends of a seeded encoding call this, so `expand_uniform(seed,
/// chain)` is the *definition* of the `c1` / `pk1` component a (seed, c0)
/// message omits.
pub fn expand_uniform(seed: u64, chain: &ModulusChain) -> RnsPoly {
    UniformStream::new(seed, chain).next_poly()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_limb(n: usize) -> ModulusChain {
        ModulusChain::new(n, &[crate::arith::generate_ntt_prime(30, n).unwrap()]).unwrap()
    }

    #[test]
    fn ternary_values_are_ternary() {
        let chain = one_limb(1024);
        let q = chain.modulus(0).value();
        let mut rng = BfvRng::from_seed(1, 3.2);
        let p = rng.ternary_rns(&chain);
        for &c in p.data() {
            assert!(c == 0 || c == 1 || c == q - 1);
        }
    }

    #[test]
    fn cbd_statistics_match_sigma() {
        let mut rng = BfvRng::from_seed(2, 3.2);
        assert_eq!(rng.cbd_k(), 20); // round(2 * 3.2^2) = round(20.48)
        let samples: Vec<i64> = (0..20000).map(|_| rng.noise_sample()).collect();
        let mean: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64;
        let var: f64 = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / samples.len() as f64;
        assert!(mean.abs() < 0.15, "mean {mean}");
        // variance should be k/2 = 10 (close to sigma^2 = 10.24)
        assert!((var - 10.0).abs() < 1.0, "var {var}");
        let bound = rng.noise_bound() as i64;
        assert!(samples.iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    fn uniform_poly_in_range_and_seed_reproducible() {
        let chain = one_limb(256);
        let mut r1 = BfvRng::from_seed(42, 3.2);
        let mut r2 = BfvRng::from_seed(42, 3.2);
        let a = r1.uniform_rns(&chain, Representation::Eval);
        let b = r2.uniform_rns(&chain, Representation::Eval);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|&v| v < chain.modulus(0).value()));
    }

    #[test]
    fn multi_limb_planes_agree_on_signed_lift() {
        let values = crate::arith::generate_ntt_primes(30, 512, 2).unwrap();
        let chain = ModulusChain::new(512, &values).unwrap();
        let mut rng = BfvRng::from_seed(5, 3.2);
        let s = rng.ternary_rns(&chain);
        let (q0, q1) = (chain.modulus(0), chain.modulus(1));
        for j in 0..512 {
            assert_eq!(q0.center(s.limb(0)[j]), q1.center(s.limb(1)[j]));
        }
    }

    #[test]
    fn expand_uniform_is_deterministic_and_canonical() {
        let values = crate::arith::generate_ntt_primes(30, 512, 3).unwrap();
        let chain = ModulusChain::new(512, &values).unwrap();
        let a = expand_uniform(0xDEAD_BEEF, &chain);
        let b = expand_uniform(0xDEAD_BEEF, &chain);
        assert_eq!(a, b);
        let c = expand_uniform(0xDEAD_BEF0, &chain);
        assert_ne!(a, c);
        for i in 0..3 {
            let q = chain.modulus(i).value();
            assert!(a.limb(i).iter().all(|&v| v < q));
        }
    }

    #[test]
    fn uniform_stream_continues_expand_uniform_into_reused_buffers() {
        let values = crate::arith::generate_ntt_primes(30, 512, 2).unwrap();
        let chain = ModulusChain::new(512, &values).unwrap();
        let mut fresh = UniformStream::new(9, &chain);
        let mut reused = UniformStream::new(9, &chain);
        let mut buf = RnsPoly::zero(&chain, Representation::Coeff);
        let first = fresh.next_poly();
        assert_eq!(first, expand_uniform(9, &chain));
        reused.next_into(&mut buf);
        assert_eq!(buf, first);
        // Later polynomials continue the one stream, whichever way drawn.
        let second = fresh.next_poly();
        reused.next_into(&mut buf);
        assert_eq!(buf, second);
        assert_ne!(second, first);
    }

    #[test]
    fn noise_rns_is_per_coefficient_draws_lifted_by_from_signed() {
        // The in-place lift writes, on every plane, what `from_signed` makes
        // of the coefficient's one draw: 1- to 4-limb chains, one chunk
        // (k = 20) and the chunked path (k = 72).
        let values = crate::arith::generate_ntt_primes(30, 256, 4).unwrap();
        for sigma in [3.2, 6.0] {
            for limbs in 1..=4 {
                let chain = ModulusChain::new(256, &values[..limbs]).unwrap();
                let seed = 40 + limbs as u64;
                let poly = BfvRng::from_seed(seed, sigma).noise_rns(&chain);
                let mut reference = BfvRng::from_seed(seed, sigma);
                let draws: Vec<i64> = (0..256).map(|_| reference.noise_sample()).collect();
                assert!(draws.iter().any(|&e| e < 0) && draws.iter().any(|&e| e > 0));
                assert_eq!(poly.representation(), Representation::Coeff);
                for (i, q) in chain.moduli().iter().enumerate() {
                    let lifted: Vec<u64> = draws.iter().map(|&e| q.from_signed(e)).collect();
                    assert_eq!(
                        poly.limb(i),
                        &lifted[..],
                        "sigma {sigma} limbs {limbs} plane {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn large_sigma_uses_multiple_chunks() {
        // sigma large enough that k > 32 exercises the chunked path.
        let mut rng = BfvRng::from_seed(3, 6.0);
        assert_eq!(rng.cbd_k(), 72);
        let s: Vec<i64> = (0..5000).map(|_| rng.noise_sample()).collect();
        let var: f64 = s.iter().map(|&x| (x as f64).powi(2)).sum::<f64>() / s.len() as f64;
        assert!((var - 36.0).abs() < 4.0, "var {var}");
    }
}
