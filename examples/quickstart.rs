//! Quickstart: the BFV pipeline of Fig. 2 — encode, encrypt,
//! homomorphically evaluate, decrypt, decode — with live noise tracking.
//!
//! Run with: `cargo run --example quickstart`

use cheetah::bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Error, Evaluator, KeyGenerator,
};

fn main() -> Result<(), Error> {
    // Table II parameters: n = 4096, 17-bit t, 60-bit q (128-bit secure),
    // ciphertext decomposition base A = 2^20.
    let params = BfvParams::builder()
        .degree(4096)
        .plain_bits(17)
        .moduli_bits(&[60])
        .a_dcmp(1 << 20)
        .build()?;
    let chain = params.chain();
    println!(
        "parameters: n={}, t={} ({} bits), Q={:?} ({} limbs, {} bits), Δ=Q/t={}",
        params.degree(),
        params.plain_modulus().value(),
        params.plain_modulus().bits(),
        chain.moduli().iter().map(|m| m.value()).collect::<Vec<_>>(),
        params.limbs(),
        chain.total_bits(),
        params.delta()
    );

    // Key material: secret/public keys plus a Galois key for rotation by 1.
    let mut keygen = KeyGenerator::from_seed(params.clone(), 7);
    let pk = keygen.public_key()?;
    let keys = keygen.galois_keys_for_steps(&[1])?;

    let encoder = BatchEncoder::new(params.clone());
    let mut encryptor = Encryptor::from_public_key(pk, 1);
    let decryptor = Decryptor::new(keygen.secret_key().clone());
    let evaluator = Evaluator::new(params.clone());
    let mut scratch = evaluator.new_scratch();

    // Encode: one ciphertext packs n = 4096 values (SIMD slots).
    let data: Vec<u64> = (0..10).map(|i| 100 + i).collect();
    let weights: Vec<u64> = (0..10).map(|i| i + 1).collect();
    let ct = encryptor.encrypt(&encoder.encode(&data)?)?;
    println!(
        "\nfresh ciphertext:       worst-case model {:>5.1} bits | measured {:>5.1} bits",
        ct.budget_bits(),
        decryptor.invariant_noise_budget(&ct)?
    );

    // HE_Add: slot-wise addition, in place.
    let mut doubled = ct.clone();
    evaluator.add_assign(&mut doubled, &ct)?;
    println!(
        "after HE_Add:           worst-case model {:>5.1} bits | measured {:>5.1} bits",
        doubled.budget_bits(),
        decryptor.invariant_noise_budget(&doubled)?
    );

    // HE_Mult (pt-ct): slot-wise multiplication by plaintext weights,
    // prepared once at the ciphertext's level.
    let w = evaluator.prepare_plaintext_at(&encoder.encode(&weights)?, ct.level())?;
    let mut product = doubled.clone();
    evaluator.mul_plain_assign(&mut product, &w)?;
    println!(
        "after HE_Mult:          worst-case model {:>5.1} bits | measured {:>5.1} bits",
        product.budget_bits(),
        decryptor.invariant_noise_budget(&product)?
    );

    // HE_Rotate: cyclic slot rotation (Galois automorphism + key switch)
    // into a caller-owned output, temporaries leased from `scratch`.
    let mut rotated = Ciphertext::transparent_zero_at(&params, product.level());
    evaluator.rotate_rows_into(&mut rotated, &product, 1, &keys, &mut scratch)?;
    println!(
        "after HE_Rotate:        worst-case model {:>5.1} bits | measured {:>5.1} bits",
        rotated.budget_bits(),
        decryptor.invariant_noise_budget(&rotated)?
    );

    // Decrypt + decode and check: slot i now holds 2*(100+i+1)*(i+2).
    let out = encoder.decode(&decryptor.decrypt_checked(&rotated)?);
    // Note how the worst-case model goes negative while measurement shows
    // ample headroom — the over-provisioning §IV-B's statistical model
    // eliminates.
    println!(
        "\nslot 0 after rotate = {} (expect {})",
        out[0],
        2 * 101 * 2
    );
    for (i, &slot) in out.iter().enumerate().take(9) {
        assert_eq!(slot, 2 * (100 + i as u64 + 1) * (i as u64 + 2));
    }
    println!("all slots verified against plaintext computation ✓");
    Ok(())
}
