//! # cheetah — a reproduction of the Cheetah system (HPCA 2021)
//!
//! *"Cheetah: Optimizing and Accelerating Homomorphic Encryption for
//! Private Inference"* (Reagen et al., arXiv:2006.00505) built as a Rust
//! workspace. This meta-crate re-exports the whole stack:
//!
//! * [`bfv`] — the BFV homomorphic-encryption engine (NTT, keys,
//!   `HE_Add` / `HE_Mult` / `HE_Rotate`, noise measurement);
//! * [`nn`] — DNN layer descriptors, the five benchmark models, and
//!   fixed-point plaintext inference;
//! * [`core`] — the engine tier of the paper's contribution: the
//!   convolution and the FC layer on real ciphertexts, two layouts over
//!   one BSGS kernel whose baby widths 1 and `d` are Sched-IA's and
//!   Sched-PA's orders, their cost model, and the chain solver that picks
//!   a chain, a level and a rotation plan per layer;
//! * [`serve`] — the Gazelle-style client/cloud round, as a client half
//!   and a server half that talk through validated wire bytes, over one
//!   shared prepared model; the pool that runs many sessions against it;
//!   and [`serve::PrivateInferenceSession`], both halves in one value;
//! * [`paper`] — the paper tier, which reads the four crates above and is
//!   read by none of them: HE-PTune's analytical models and per-layer
//!   tuner, the Fig. 6 speedups, the §VI profile and Fig. 7 limit study,
//!   the §VII–VIII accelerator (HLS-style kernel costs, per-kernel DSE,
//!   the PE/Lane simulator) and the Fig. 8 GPU study.
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the per-figure evaluation harness.
//!
//! ## The hot path
//!
//! Cheetah's thesis (§IV) is that private inference is decided by the cost
//! of three HE kernels — NTTs, pointwise multiply-accumulate, and
//! key-switching. The software engine keeps those kernels on a
//! zero-allocation, thread-parallel path:
//!
//! * **In-place evaluator ops** — [`bfv::Evaluator`] exposes
//!   `add_assign` / `sub_assign` / `mul_plain_assign` /
//!   `mul_plain_accumulate` / `apply_galois_into` / `rotate_rows_into`,
//!   which draw temporaries from a reusable [`bfv::Scratch`] pool and
//!   perform **zero heap allocations at steady state** (enforced by a
//!   counting-allocator test). Each operation has this one form.
//! * **One parallel linear kernel** — `core`'s `HomConv2d` / `HomFc` lay
//!   out masks and slots; their `apply(input, eval, keys, threads)` runs
//!   the one `PreparedKernel`, which splits the giant groups'
//!   multiply-accumulate loops into per-thread chunks, combines the group
//!   sums in plan order after the join — same residues, noise estimate
//!   and [`bfv::OpCounts`] for every thread count — and hands every
//!   leased buffer back, on error too.
//! * **Vector kernels** — [`bfv::simd`] dispatches the NTT butterflies,
//!   the pointwise kernels, the lazy inner product under every mask sum
//!   and key switch, and the per-limb constant multiplies of the
//!   decompositions and the rescale at runtime to one of four backends —
//!   the scalar reference (forced only), portable lanes, AVX2 lanes, or
//!   the AVX2 lanes plus explicit AVX-512 IFMA kernels (NTT, inner
//!   product, constant multiplier) for limbs under 2^50 — bit-identical
//!   to the scalar reference (no cargo feature).
//!
//! `cargo run --release -p cheetah-bench --bin bench_he_ops` emits
//! `BENCH_he_ops.json` with ns/op for the three operators (into a fresh
//! output vs in place), making the perf trajectory machine-readable across
//! PRs.
//!
//! ```
//! use cheetah::bfv::{BatchEncoder, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator};
//!
//! # fn main() -> Result<(), cheetah::bfv::Error> {
//! let params = BfvParams::builder().degree(4096).build()?;
//! let mut keygen = KeyGenerator::from_seed(params.clone(), 1);
//! let pk = keygen.public_key()?;
//! let encoder = BatchEncoder::new(params.clone());
//! let mut enc = Encryptor::from_public_key(pk, 2);
//! let dec = Decryptor::new(keygen.secret_key().clone());
//! let eval = Evaluator::new(params);
//!
//! let ct = enc.encrypt(&encoder.encode(&[21, 2])?)?;
//! let mut twice = ct.clone();
//! eval.add_assign(&mut twice, &ct)?;
//! assert_eq!(encoder.decode(&dec.decrypt_checked(&twice)?)[0], 42);
//! # Ok(())
//! # }
//! ```

pub use cheetah_bfv as bfv;
pub use cheetah_core as core;
pub use cheetah_nn as nn;
pub use cheetah_paper as paper;
pub use cheetah_serve as serve;
