//! A wide-integer reference for BFV decryption and plaintext algebra.
//!
//! Everything here is written against `std` alone: no engine type, no
//! NTT, no RNS arithmetic, no lazy reduction. Polynomials are coefficient
//! vectors over the composed modulus `Q` in `u128`, composed from their
//! residues by this module's own Garner CRT (never `ModulusChain::crt()`),
//! and every product is the schoolbook negacyclic one. The secret is
//! ternary, so `c1·s` is additions and subtractions of `c1`'s
//! coefficients, each reduced to `[0, Q)` on the spot.
//!
//! The boundary is the input: the engine keeps polynomials in evaluation
//! form, and callers hand this module coefficient planes (the engine's
//! inverse NTT is the one engine routine on the path in).

/// A composed modulus `Q = q_0 ⋯ q_{L−1}` of distinct primes, with the
/// Garner constants that compose residues into `[0, Q)`.
pub struct WideModulus {
    primes: Vec<u64>,
    q: u128,
    /// `inv[i][j] = q_j^{-1} mod q_i` for `j < i`.
    inv: Vec<Vec<u64>>,
}

fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 * b as u128) % q as u128) as u64
}

fn pow_mod(mut base: u64, mut e: u64, q: u64) -> u64 {
    let mut acc = 1 % q;
    base %= q;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod(acc, base, q);
        }
        base = mul_mod(base, base, q);
        e >>= 1;
    }
    acc
}

impl WideModulus {
    /// The composed modulus of `primes`.
    ///
    /// # Panics
    ///
    /// Panics if the product overflows `u128`.
    pub fn new(primes: &[u64]) -> Self {
        let q = primes.iter().fold(1u128, |acc, &p| {
            acc.checked_mul(p as u128).expect("Q must fit u128")
        });
        let inv = primes
            .iter()
            .enumerate()
            .map(|(i, &qi)| {
                // q_i is prime: the inverse is a Fermat power.
                primes[..i]
                    .iter()
                    .map(|&qj| pow_mod(qj % qi, qi - 2, qi))
                    .collect()
            })
            .collect();
        Self {
            primes: primes.to_vec(),
            q,
            inv,
        }
    }

    /// `Q`.
    pub fn value(&self) -> u128 {
        self.q
    }

    /// The integer in `[0, Q)` with residue `residues[i]` mod `q_i`,
    /// by Garner's mixed-radix form `v_0 + v_1·q_0 + v_2·q_0·q_1 + …`.
    pub fn compose(&self, residues: &[u64]) -> u128 {
        assert_eq!(residues.len(), self.primes.len());
        let mut digits: Vec<u64> = Vec::with_capacity(residues.len());
        for (i, (&r, &qi)) in residues.iter().zip(&self.primes).enumerate() {
            let mut x = r % qi;
            for (j, &v) in digits.iter().enumerate() {
                x = mul_mod((x + qi - v % qi) % qi, self.inv[i][j], qi);
            }
            digits.push(x);
        }
        let mut out = 0u128;
        for (&v, &qi) in digits.iter().zip(&self.primes).rev() {
            out = out * qi as u128 + v as u128;
        }
        out
    }

    /// Composes every coefficient of limb-major planes (`primes.len()`
    /// planes of `n` residues each).
    pub fn compose_planes(&self, planes: &[u64]) -> Vec<u128> {
        let limbs = self.primes.len();
        assert_eq!(planes.len() % limbs, 0);
        let n = planes.len() / limbs;
        (0..n)
            .map(|j| {
                let residues: Vec<u64> = (0..limbs).map(|i| planes[i * n + j]).collect();
                self.compose(&residues)
            })
            .collect()
    }

    fn sub(&self, a: u128, b: u128) -> u128 {
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// `|x|` of the centered representative of `x ∈ [0, Q)`.
    pub fn centered_abs(&self, x: u128) -> u128 {
        if x > self.q / 2 {
            self.q - x
        } else {
            x
        }
    }

    /// `scale·s` coefficient-wise for a ternary `s`, in `[0, Q)`.
    pub fn scaled_ternary(&self, scale: u128, s: &[i8]) -> Vec<u128> {
        let scale = scale % self.q;
        s.iter()
            .map(|&si| match si {
                0 => 0,
                1 => scale,
                _ => self.sub(0, scale),
            })
            .collect()
    }

    /// `c0 + c1·s` in `Z_Q[x]/(x^n + 1)`, by the schoolbook negacyclic
    /// product: `x^j·c1` moves coefficient `i` to `i + j`, and past `n`
    /// it wraps with a sign flip.
    pub fn phase(&self, c0: &[u128], c1: &[u128], s: &[i8]) -> Vec<u128> {
        let n = c0.len();
        assert!(c1.len() == n && s.len() == n);
        let mut v = c0.to_vec();
        for (j, &sj) in s.iter().enumerate() {
            if sj == 0 {
                continue;
            }
            let (wrapped, straight) = v.split_at_mut(j);
            let (to_straight, to_wrapped) = c1.split_at(n - j);
            let (plus, minus) = if sj == 1 {
                (straight, wrapped)
            } else {
                (wrapped, straight)
            };
            let (plus_src, minus_src) = if sj == 1 {
                (to_straight, to_wrapped)
            } else {
                (to_wrapped, to_straight)
            };
            // Addition and subtraction mod Q spelled out: this loop is the
            // oracle's whole cost, and an unoptimised build inlines no
            // call.
            let q = self.q;
            for i in 0..plus.len() {
                let s = plus[i] + plus_src[i];
                plus[i] = if s >= q { s - q } else { s };
            }
            for i in 0..minus.len() {
                let (d, c) = (minus[i], minus_src[i]);
                minus[i] = if d >= c { d - c } else { d + q - c };
            }
        }
        v
    }

    /// `a − b` coefficient-wise.
    pub fn sub_poly(&self, a: &[u128], b: &[u128]) -> Vec<u128> {
        a.iter().zip(b).map(|(&x, &y)| self.sub(x, y)).collect()
    }

    /// Largest centered coefficient magnitude.
    pub fn inf_norm(&self, a: &[u128]) -> u128 {
        a.iter().map(|&x| self.centered_abs(x)).max().unwrap_or(0)
    }

    /// BFV decryption of a phase `v = c0 + c1·s`: the plaintext
    /// `m = round(t·v/Q) mod t` and the invariant noise
    /// `||v − Δ·m||_∞` with `Δ = floor(Q/t)`, centered mod `Q`.
    pub fn decrypt(&self, v: &[u128], t: u64) -> (Vec<u64>, u128) {
        let (q, t) = (self.q, t as u128);
        assert!(
            t.checked_mul(q)
                .and_then(|x| x.checked_add(q / 2))
                .is_some(),
            "t·Q must fit u128"
        );
        let delta = q / t;
        let mut noise = 0;
        let m = v
            .iter()
            .map(|&x| {
                let m = ((t * x + q / 2) / q) % t;
                noise = noise.max(self.centered_abs(self.sub(x, delta * m)));
                m as u64
            })
            .collect();
        (m, noise)
    }
}

/// `a + b` mod `t`, coefficient-wise.
pub fn add_mod_t(a: &[u64], b: &[u64], t: u64) -> Vec<u64> {
    a.iter().zip(b).map(|(&x, &y)| (x + y) % t).collect()
}

/// `a·b` in `Z_t[x]/(x^n + 1)` by the schoolbook negacyclic product.
pub fn mul_mod_t(a: &[u64], b: &[u64], t: u64) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let p = mul_mod(ai, bj, t);
            let k = i + j;
            if k < n {
                out[k] = (out[k] + p) % t;
            } else {
                out[k - n] = (out[k - n] + t - p) % t;
            }
        }
    }
    out
}

/// `m(x) ↦ m(x^g)` in `Z_t[x]/(x^n + 1)`: coefficient `i` moves to
/// `i·g mod 2n`, negated when that lands past `n` (`x^n = −1`).
pub fn automorphism_mod_t(m: &[u64], g: u64, t: u64) -> Vec<u64> {
    automorphism(m, g, |c| (t - c) % t)
}

/// `s(x) ↦ s(x^g)` on a ternary polynomial.
pub fn automorphism_ternary(s: &[i8], g: u64) -> Vec<i8> {
    automorphism(s, g, |c| -c)
}

fn automorphism<T: Copy + Default>(m: &[T], g: u64, neg: impl Fn(T) -> T) -> Vec<T> {
    let n = m.len();
    let two_n = 2 * n as u64;
    let mut out = vec![T::default(); n];
    for (i, &c) in m.iter().enumerate() {
        let idx = (i as u64 * g % two_n) as usize;
        if idx < n {
            out[idx] = c;
        } else {
            out[idx - n] = neg(c);
        }
    }
    out
}

/// The Galois element of a left row rotation by `step` at degree `n`:
/// `3^k mod 2n` with `k = step mod n/2`, by `k` plain multiplications.
pub fn rotation_element(n: usize, step: i64) -> u64 {
    let k = step.rem_euclid(n as i64 / 2);
    let two_n = 2 * n as u64;
    (0..k).fold(1u64, |g, _| g * 3 % two_n)
}
