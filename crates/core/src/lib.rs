//! # cheetah-core — HE-PTune and Sched-PA
//!
//! The primary contribution of the Cheetah paper (HPCA 2021), built on the
//! [`cheetah_bfv`] engine and the [`cheetah_nn`] model zoo:
//!
//! * [`ptune`] — the analytical performance model (Table IV: HE-operator
//!   counts reduced to integer multiplications) and noise model (Tables III
//!   and V, worst-case and statistical regimes), plus the per-layer
//!   parameter design-space exploration of §IV-C;
//! * [`schedule`] / [`linear`] — the partial-aligned dot-product schedule
//!   (Sched-PA, §V) and its input-aligned prior-art counterpart, both as
//!   analytical noise shapes and as functional layers on real ciphertexts:
//!   one rotate–multiply–accumulate kernel ([`linear::PreparedKernel`] over
//!   a [`BsgsPlan`]) under two layouts — FC over the live folded
//!   diagonals, whose baby widths 1 and `d` are the diagonal method in
//!   Sched-PA's and Sched-IA's order; convolution packed — hoisted tap
//!   baby steps, Horner channel-diagonal giant steps, every output
//!   channel in one ciphertext;
//! * [`baseline`] / [`speedup`] — the Gazelle baseline (one global
//!   parameter set + Sched-IA) and the Fig. 6 speedup pipeline.
//!
//! ## Tuning one layer
//!
//! ```
//! use cheetah_core::ptune::{tune_layer, NoiseRegime, TuneSpace};
//! use cheetah_core::schedule::Schedule;
//! use cheetah_nn::{ConvSpec, LinearLayer};
//!
//! let layer = LinearLayer::Conv(ConvSpec {
//!     name: "conv1".into(),
//!     w: 28, fw: 3, ci: 32, co: 32, stride: 1, pad: 1,
//! });
//! let outcome = tune_layer(
//!     &layer,
//!     18, // plaintext precision (bits) this layer needs
//!     Schedule::PartialAligned,
//!     NoiseRegime::Statistical,
//!     &TuneSpace::default(),
//! );
//! let best = outcome.best.expect("a feasible configuration exists");
//! assert!(best.budget_bits >= 0.0);
//! ```

pub mod baseline;
pub mod cost;
pub mod linear;
pub mod ptune;
pub mod quant;
pub mod schedule;
pub mod sparse;
pub mod speedup;

pub use cost::{HeCostParams, KernelMults, KernelTally};
pub use linear::ConvPlan;
pub use ptune::{DesignPoint, NoiseRegime, TuneSpace};
pub use quant::{QuantSpec, WeightMode};
pub use schedule::Schedule;
pub use sparse::{BsgsGroup, BsgsPlan, Combine, ConvStructure, FcStructure, LayerStructure};
pub use speedup::{evaluate_model, harmonic_mean, ModelSpeedup};
