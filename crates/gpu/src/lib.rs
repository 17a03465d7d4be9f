//! # cheetah-gpu — the Fig. 8 GPU NTT study
//!
//! The paper measures cuHE's NTT on an NVIDIA 1080-Ti and finds speedup
//! saturating near 120× — far short of the 16384× the limit study demands.
//! No GPU exists in this environment, so this crate substitutes [`simt`]:
//! a first-order SIMT analytical model (occupancy ramp,
//! 64-bit-emulation instruction expansion, memory roofline) calibrated
//! to 1080-Ti specifications, regenerating the Fig. 8 curves.

pub mod simt;

pub use simt::{figure8_sweep, model_batched_ntt, CpuSpec, GpuSpec, NttPoint};
