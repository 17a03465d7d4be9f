//! HE-PTune: analytical performance and noise models plus the per-layer
//! parameter tuner (§IV of the paper).

pub mod noise;
pub mod perf;
pub mod tuner;

pub use noise::{layer_noise, HeNoiseParams, LayerNoise, NoiseRegime};
pub use perf::{conv_ops, fc_ops, layer_ops, OpModel};
pub use tuner::{tune_layer, tune_network, DesignPoint, TuneOutcome, TuneSpace, NO_WINDOW};
