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
//! * [`core`] — the paper's contribution: HE-PTune analytical models and
//!   per-layer parameter tuning, plus the Sched-PA / Sched-IA schedules
//!   (analytical, and on real ciphertexts: the convolution and the FC
//!   layer are two layouts over one BSGS kernel, whose baby widths 1 and
//!   `d` are the two schedules' orders);
//! * [`serve`] — the Gazelle-style client/cloud round, as a client half
//!   and a server half that talk through validated wire bytes, over one
//!   shared prepared model; the pool that runs many sessions against it;
//!   and [`serve::PrivateInferenceSession`], both halves in one value;
//! * [`profile`] — kernel profiling and the Fig. 7 limit study;
//! * [`gpu`] — the Fig. 8 GPU batched-NTT study (the SIMT model);
//! * [`accel`] — the accelerator architecture: HLS-style kernel cost
//!   models, per-kernel DSE, and the PE/Lane simulator.
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
//!   counting-allocator test). The classic allocating API still exists as
//!   thin wrappers over the same kernels.
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
//! `BENCH_he_ops.json` with ns/op for the three operators (allocating vs
//! in-place), making the perf trajectory machine-readable across PRs.
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
//! let twice = eval.add(&ct, &ct)?;
//! assert_eq!(encoder.decode(&dec.decrypt_checked(&twice)?)[0], 42);
//! # Ok(())
//! # }
//! ```

pub use cheetah_accel as accel;
pub use cheetah_bfv as bfv;
pub use cheetah_core as core;
pub use cheetah_gpu as gpu;
pub use cheetah_nn as nn;
pub use cheetah_profile as profile;
pub use cheetah_serve as serve;
