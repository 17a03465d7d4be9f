//! End-to-end private inference: the Gazelle protocol of §II-A running a
//! small CNN with real BFV on the linear layers, additive masking, and a
//! simulated garbled circuit for ReLU/pooling.
//!
//! Run with: `cargo run --release --example private_inference`

use cheetah::bfv::BfvParams;
use cheetah::nn::inference::{infer, random_input};
use cheetah::nn::models::tiny_cnn;
use cheetah::nn::Weights;
use cheetah::serve::PrivateInferenceSession;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The cloud's model (weights private to the cloud) and the client's
    // input (private to the client).
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 2024);
    let input = random_input(&net.input_shape, 3, 4);
    println!(
        "model: {} ({} linear layers)",
        net.name,
        net.linear_layers().len()
    );

    // HE session parameters: wide enough t for the network's worst-case
    // integer range, q ≡ 1 (mod 2n·t). The FC layers' hoisted baby steps
    // multiply a key-switched ciphertext, so the decomposition base A sets
    // their noise: at A = 2^6 a single 60-bit limb leaves the client's
    // decrypt gate under half a bit (one key seed in twenty trips it);
    // A = 2^4 buys two bits back for a few more key-switch digits.
    let params = BfvParams::builder()
        .degree(4096)
        .plain_bits(18)
        .cipher_bits(60)
        .a_dcmp(1 << 4)
        .build()?;

    let mut session = PrivateInferenceSession::new(&net, &weights, params, 99)?;
    let (output, transcript) = session.run(&input)?;

    // The reference plaintext inference the client could NOT run (it does
    // not know the weights) — used here only to verify exactness.
    let expected = infer(&net, &weights, &input).output;
    assert_eq!(
        output.data(),
        expected.data(),
        "private inference must be exact"
    );

    println!("\nprediction (4 logits): {:?}", output.data());
    println!("matches plaintext inference exactly ✓");
    println!("\n{transcript}");
    println!(
        "rounds: {}   total communication: {:.1} KiB",
        transcript.rounds(),
        transcript.total_bytes() as f64 / 1024.0
    );
    Ok(())
}
