//! # cheetah-core — the engine tier: linear layers on real ciphertexts
//!
//! The part of the Cheetah paper (HPCA 2021) that runs on ciphertexts,
//! built on the [`cheetah_bfv`] engine and the [`cheetah_nn`] model zoo.
//! The analytical studies — HE-PTune's Table III–V models, the Fig. 6
//! speedups, the §VI profile and the §VII–VIII accelerator — live in the
//! paper tier, `cheetah-paper`, which reads this crate; nothing here reads
//! it.
//!
//! * [`linear`] / [`sparse`] — one rotate–multiply–accumulate kernel
//!   ([`linear::PreparedKernel`] over a [`BsgsPlan`]) under two layouts:
//!   FC over the live folded diagonals, whose baby widths 1 and `d` are
//!   the diagonal method in Sched-PA's and Sched-IA's order (§V);
//!   convolution packed — hoisted tap baby steps, channel-diagonal giant
//!   steps, every output channel in one ciphertext — both combining their
//!   giant groups by Horner over the live ones;
//! * [`cost`] — the per-level, hybrid-aware kernel prices every plan
//!   chooser minimizes;
//! * [`solver`] — the chain solver: one concrete chain plus a level and
//!   rotation plan per layer, asked of the engine's own choosers;
//! * [`quant`] — the plaintext-precision profile that sizes `t`;
//! * [`schedule`] — the Sched-PA / Sched-IA names the paper tier's noise
//!   and operator models take; no engine path branches on it.
//!
//! ## Choosing an FC plan
//!
//! ```
//! use cheetah_bfv::BfvParams;
//! use cheetah_core::linear::FcPlan;
//! use cheetah_core::{FcStructure, HeCostParams};
//!
//! let params = BfvParams::preset_rns_3x36(4096).unwrap();
//! let cost = HeCostParams::for_bfv(&params, 0);
//! // A dense 1024 → 256 layer: the input copies fill both batching rows,
//! // so the kernel multiplies Table IV's n_i·n_o/n = 64 masks.
//! let plan = FcPlan::choose(&FcStructure::dense(256, 1024), params.slots(), &cost);
//! assert_eq!(plan.live_masks(), 64);
//! ```

pub mod cost;
pub mod linear;
pub mod quant;
pub mod schedule;
pub mod solver;
pub mod sparse;

pub use cost::{HeCostParams, KernelMults, KernelTally};
pub use linear::ConvPlan;
pub use quant::QuantSpec;
pub use schedule::Schedule;
pub use sparse::{BsgsGroup, BsgsPlan, ConvStructure, FcStructure, LayerStructure};
