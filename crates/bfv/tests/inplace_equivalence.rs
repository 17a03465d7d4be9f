//! Equivalence properties for the zero-allocation hot path:
//!
//! * every in-place evaluator operation must be **bit-identical** to an
//!   independent reference on limb plane 0 as a `Vec<u64>`, computed with
//!   [`Modulus`]' scalar methods, which never enter the `simd` dispatcher;
//! * reusing a dirty [`Scratch`] across operations must never change a
//!   result.

mod support;

use cheetah_bfv::arith::Modulus;
use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, GaloisKeys, KeyGenerator,
    Scratch,
};
use proptest::prelude::*;
use support::Alloc;

struct Ctx {
    params: BfvParams,
    encoder: BatchEncoder,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
    keys: GaloisKeys,
}

fn ctx(seed: u64) -> Ctx {
    let params = BfvParams::builder()
        .degree(2048)
        .plain_bits(16)
        .moduli_bits(&[54])
        .a_dcmp(1 << 16)
        .build()
        .unwrap();
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let pk = kg.public_key().unwrap();
    let keys = kg.galois_keys_for_steps(&[1, 2, 3]).unwrap();
    Ctx {
        params: params.clone(),
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 0x5eed),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params),
        keys,
    }
}

/// Strict bit-equality on the ciphertext polynomials (all limb planes).
fn assert_polys_eq(a: &Ciphertext, b: &Ciphertext) {
    assert_eq!(a.c0().data(), b.c0().data(), "c0 residues differ");
    assert_eq!(a.c1().data(), b.c1().data(), "c1 residues differ");
}

/// Limb plane 0 (the 1-limb chains in these tests make that the whole
/// ciphertext component).
fn limb0(p: &cheetah_bfv::RnsPoly) -> Vec<u64> {
    p.limb(0).to_vec()
}

/// `acc[j] = f(acc[j], a[j])`, the reference's one loop shape.
fn zip_with(acc: &mut [u64], a: &[u64], f: impl Fn(u64, u64) -> u64) {
    for (r, &x) in acc.iter_mut().zip(a) {
        *r = f(*r, x);
    }
}

/// `acc[j] += a[j]·b[j] mod q`.
fn fma(acc: &mut [u64], a: &[u64], b: &[u64], q: &Modulus) {
    for ((r, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *r = q.add_mod(*r, q.mul_mod(x, y));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn add_assign_matches_poly_reference(
        seed in any::<u64>(),
        a in proptest::collection::vec(0u64..65536, 8),
        b in proptest::collection::vec(0u64..65536, 8),
    ) {
        let mut c = ctx(seed);
        let q = *c.params.chain().modulus(0);
        let ca = c.enc.encrypt(&c.encoder.encode(&a).unwrap()).unwrap();
        let cb = c.enc.encrypt(&c.encoder.encode(&b).unwrap()).unwrap();

        // Reference: scalar `add_mod` on limb plane 0 (the only limb of
        // this chain).
        let mut ref0 = limb0(ca.c0());
        let mut ref1 = limb0(ca.c1());
        zip_with(&mut ref0, cb.c0().limb(0), |x, y| q.add_mod(x, y));
        zip_with(&mut ref1, cb.c1().limb(0), |x, y| q.add_mod(x, y));

        let mut inplace = ca.clone();
        c.eval.add_assign(&mut inplace, &cb).unwrap();
        prop_assert_eq!(inplace.c0().data(), &ref0[..]);
        prop_assert_eq!(inplace.c1().data(), &ref1[..]);

        // The value form (a clone, then the in-place body) agrees bit-for-bit.
        let wrapper = c.eval.add(&ca, &cb).unwrap();
        assert_polys_eq(&wrapper, &inplace);

        // And sub_assign must invert add_assign exactly.
        c.eval.sub_assign(&mut inplace, &cb).unwrap();
        assert_polys_eq(&inplace, &ca);
    }

    #[test]
    fn mul_plain_assign_matches_poly_reference(
        seed in any::<u64>(),
        a in proptest::collection::vec(0u64..65536, 8),
        w in proptest::collection::vec(0u64..65536, 8),
    ) {
        let mut c = ctx(seed);
        let q = *c.params.chain().modulus(0);
        let ca = c.enc.encrypt(&c.encoder.encode(&a).unwrap()).unwrap();
        let pw = c.eval.prepare_plaintext_at(&c.encoder.encode(&w).unwrap(), 0).unwrap();

        let mut ref0 = limb0(ca.c0());
        let mut ref1 = limb0(ca.c1());
        zip_with(&mut ref0, pw.poly().unpack().limb(0), |x, y| q.mul_mod(x, y));
        zip_with(&mut ref1, pw.poly().unpack().limb(0), |x, y| q.mul_mod(x, y));

        let mut inplace = ca.clone();
        c.eval.mul_plain_assign(&mut inplace, &pw).unwrap();
        prop_assert_eq!(inplace.c0().data(), &ref0[..]);
        prop_assert_eq!(inplace.c1().data(), &ref1[..]);

        let wrapper = c.eval.mul_plain(&ca, &pw).unwrap();
        assert_polys_eq(&wrapper, &inplace);

        // Fused accumulate == mul then add, bit-for-bit.
        let mut fused = ca.clone();
        c.eval.mul_plain_accumulate_many(&mut fused, &[(&ca, &pw)]).unwrap();
        let explicit = c.eval.add(&ca, &c.eval.mul_plain(&ca, &pw).unwrap()).unwrap();
        assert_polys_eq(&fused, &explicit);
    }

    /// The one-pass group sum lands on the residues, the noise estimate
    /// and the op counts of its terms accumulated one at a time — and on
    /// the scalar reference's residues.
    #[test]
    fn mul_plain_accumulate_many_matches_sequential_and_poly_reference(
        seed in any::<u64>(),
        terms in 0usize..6,
        w in proptest::collection::vec(0u64..65536, 8),
    ) {
        let mut c = ctx(seed);
        let q = *c.params.chain().modulus(0);
        let start = c.enc.encrypt(&c.encoder.encode(&w).unwrap()).unwrap();
        let cts: Vec<Ciphertext> = (0..terms)
            .map(|k| {
                let vals: Vec<u64> = w.iter().map(|&v| (v + k as u64) % 65536).collect();
                c.enc.encrypt(&c.encoder.encode(&vals).unwrap()).unwrap()
            })
            .collect();
        let masks: Vec<_> = (0..terms)
            .map(|k| {
                let vals: Vec<u64> = w.iter().map(|&v| (3 * v + k as u64) % 65536).collect();
                c.eval.prepare_plaintext_at(&c.encoder.encode(&vals).unwrap(), 0).unwrap()
            })
            .collect();

        let mut ref0 = limb0(start.c0());
        let mut ref1 = limb0(start.c1());
        let mut sequential = start.clone();
        c.eval.reset_op_counts();
        for (ct, mask) in cts.iter().zip(&masks) {
            fma(&mut ref0, ct.c0().limb(0), mask.poly().unpack().limb(0), &q);
            fma(&mut ref1, ct.c1().limb(0), mask.poly().unpack().limb(0), &q);
            c.eval.mul_plain_accumulate_many(&mut sequential, &[(ct, mask)]).unwrap();
        }
        let sequential_counts = c.eval.op_counts();

        let pairs: Vec<_> = cts.iter().zip(&masks).collect();
        let mut many = start.clone();
        c.eval.reset_op_counts();
        c.eval.mul_plain_accumulate_many(&mut many, &pairs).unwrap();
        prop_assert_eq!(c.eval.op_counts(), sequential_counts);
        prop_assert_eq!(many.c0().data(), &ref0[..]);
        prop_assert_eq!(many.c1().data(), &ref1[..]);
        assert_polys_eq(&many, &sequential);
        prop_assert_eq!(many.noise(), sequential.noise());
    }

    #[test]
    fn rotate_into_is_deterministic_under_dirty_scratch(
        seed in any::<u64>(),
        step in 1i64..4,
    ) {
        let mut c = ctx(seed);
        let vals: Vec<u64> = (0..64u64).collect();
        let ct = c.enc.encrypt(&c.encoder.encode(&vals).unwrap()).unwrap();

        // The value form (a fresh scratch each call) vs caller scratch
        // reused twice in a row, third call after unrelated traffic.
        let wrapper = c.eval.rotate_rows(&ct, step, &c.keys).unwrap();
        let mut scratch: Scratch = c.eval.new_scratch();
        let mut out1 = Ciphertext::transparent_zero_at(&c.params, 0);
        c.eval.rotate_rows_into(&mut out1, &ct, step, &c.keys, &mut scratch).unwrap();
        assert_polys_eq(&out1, &wrapper);

        let mut out2 = Ciphertext::transparent_zero_at(&c.params, 0);
        c.eval.add_plain_assign(&mut out2, &c.encoder.encode(&vals).unwrap(), &mut scratch).unwrap();
        c.eval.rotate_rows_into(&mut out2, &ct, step, &c.keys, &mut scratch).unwrap();
        assert_polys_eq(&out2, &wrapper);

        // Decryption agrees with the slot-shift semantics (step < 4, so
        // slots 0..16 read from within the 64 populated values).
        let out = c.encoder.decode(&c.dec.decrypt_checked(&out2).unwrap());
        for i in 0..16 {
            prop_assert_eq!(out[i], vals[i + step as usize]);
        }
    }
}
