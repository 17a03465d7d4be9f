//! # cheetah-paper — the paper tier: models, profile, accelerator
//!
//! The analytical half of the Cheetah paper (HPCA 2021). It reads the
//! engine tier — [`cheetah_bfv`], [`cheetah_nn`] and [`cheetah_core`] —
//! through ordinary dependencies, and no engine crate depends on it:
//!
//! * [`ptune`] — HE-PTune (§IV): the Table IV operator-count model, the
//!   Table III / V noise model (worst-case and statistical regimes) and
//!   the per-layer parameter design-space exploration;
//! * [`baseline`] / [`speedup`] — the Gazelle baseline (one global
//!   parameter set + Sched-IA) and the Fig. 6 speedup pipeline;
//! * the §VI profile — measured engine kernel latencies ([`kernels`],
//!   [`kernels::KernelTimer`]) times modeled counts: the Fig. 7(a) breakdown
//!   ([`breakdown`]) and the Fig. 7(b) limit study ([`limit`]);
//! * the §VII–VIII accelerator, with the Catapult-HLS + 40 nm flow
//!   replaced by an analytical cost model: HLS-style kernel costs
//!   ([`kernels`]), per-kernel DSE and power-latency Pareto ([`dse`],
//!   [`pareto`], Fig. 10), the PE/Lane architecture and its
//!   activity-factor simulator ([`arch`], [`workload`], [`sim`]), the
//!   PE × Lane sweep of Fig. 11 ([`explore`]), Table VI ([`generality`])
//!   and 40 → 16 → 5 nm scaling ([`tech`]);
//! * [`simt`] — the Fig. 8 GPU batched-NTT study: a first-order SIMT
//!   model (occupancy ramp, 64-bit-emulation expansion, memory roofline)
//!   calibrated to a 1080-Ti, standing in for the paper's cuHE runs.
//!
//! ## Tuning one layer
//!
//! ```
//! use cheetah_core::schedule::Schedule;
//! use cheetah_nn::{ConvSpec, LinearLayer};
//! use cheetah_paper::ptune::{tune_layer, NoiseRegime, TuneSpace};
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

pub mod arch;
pub mod baseline;
pub mod breakdown;
pub mod dse;
pub mod explore;
pub mod generality;
pub mod kernels;
pub mod limit;
pub mod pareto;
pub mod ptune;
pub mod sim;
pub mod simt;
pub mod speedup;
pub mod tech;
pub mod workload;
