//! Seeded uploads at every level, against the independent oracle in
//! `oracle/`: a fresh symmetric encryption made at level `ℓ`
//! (`Encryptor::encrypt_seeded_at`), shipped as (seed, `c0`) and decoded
//! with `c1` re-expanded over the level's chain, decrypts in the oracle's
//! wide-integer arithmetic to the plaintext that went in; the oracle's
//! noise is the engine's measured noise, and both sit under
//! `NoiseEstimate::fresh`'s bound — the estimate the decoder attaches at
//! every level, because fresh noise does not depend on the modulus.
//!
//! Covered on `rns_3x36` and `hybrid_2x36`, every level of each.

#[allow(dead_code)]
mod oracle;

use cheetah_bfv::{
    wire, BatchEncoder, BfvParams, Decryptor, Encryptor, KeyGenerator, ModulusChain, NoiseEstimate,
    RnsPoly,
};
use oracle::WideModulus;

/// Residues of a polynomial in coefficient form, limb-major — the one
/// engine routine (the inverse NTT) on the way into the oracle.
fn coeff_planes(poly: &RnsPoly, chain: &ModulusChain) -> Vec<u64> {
    let mut p = poly.clone();
    p.to_coeff(chain);
    p.data().to_vec()
}

/// The secret's ternary coefficients, read off limb plane 0.
fn ternary_secret(kg: &KeyGenerator, params: &BfvParams) -> Vec<i8> {
    let q0 = params.chain().modulus(0).value();
    coeff_planes(kg.secret_key().poly(), params.chain())[..params.degree()]
        .iter()
        .map(|&c| match c {
            0 => 0,
            1 => 1,
            c => {
                assert_eq!(c, q0 - 1, "secret must be ternary");
                -1
            }
        })
        .collect()
}

fn seeded_uploads_match_the_oracle(name: &str, params: BfvParams) {
    let n = params.degree();
    let t = params.plain_modulus().value();
    let kg = KeyGenerator::from_seed(params.clone(), 41);
    let s = ternary_secret(&kg, &params);
    let decryptor = Decryptor::new(kg.secret_key().clone());
    let mut encryptor = Encryptor::from_secret_key(kg.secret_key().clone(), 42);
    let values: Vec<u64> = (0..n as u64).map(|i| (7 * i + 3) % t).collect();
    let pt = BatchEncoder::new(params.clone()).encode(&values).unwrap();
    let fresh = NoiseEstimate::fresh(&params);

    for level in 0..params.levels() {
        let what = format!("{name} lvl{level}");
        let (sent, seed) = encryptor.encrypt_seeded_at(&pt, level).unwrap();
        let bytes = wire::encode_ciphertext_seeded(&sent, seed).unwrap();
        let ct = wire::decode_ciphertext(&bytes, &params).unwrap();
        assert_eq!(ct.level(), level, "{what}");
        assert_eq!(*ct.noise(), fresh, "{what}: the decoder's estimate");

        let chain = params.chain_at(level);
        let primes: Vec<u64> = chain.moduli().iter().map(|q| q.value()).collect();
        let q = WideModulus::new(&primes);
        let c0 = q.compose_planes(&coeff_planes(ct.c0(), chain));
        let c1 = q.compose_planes(&coeff_planes(ct.c1(), chain));
        let (m, noise) = q.decrypt(&q.phase(&c0, &c1, &s), t);

        assert_eq!(&m[..], pt.coeffs(), "{what}: oracle decrypt");
        let engine = decryptor.decrypt_checked(&ct).unwrap();
        assert_eq!(engine.coeffs(), &m[..], "{what}: engine vs oracle decrypt");
        assert_eq!(
            decryptor.invariant_noise(&ct).unwrap(),
            noise,
            "{what}: engine vs oracle noise"
        );
        assert!(
            (noise.max(1) as f64).log2() <= fresh.bound_log2,
            "{what}: oracle noise 2^{:.1} above the fresh bound 2^{:.1}",
            (noise as f64).log2(),
            fresh.bound_log2
        );
    }
}

#[test]
fn digit_chain_seeded_uploads_match_the_oracle_at_every_level() {
    seeded_uploads_match_the_oracle("rns_3x36", BfvParams::preset_rns_3x36(4096).unwrap());
}

#[test]
fn hybrid_chain_seeded_uploads_match_the_oracle_at_every_level() {
    seeded_uploads_match_the_oracle("hybrid_2x36", BfvParams::preset_hybrid_2x36(4096).unwrap());
}
