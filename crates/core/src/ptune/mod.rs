//! HE-PTune: analytical performance and noise models plus the per-layer
//! parameter tuner (§IV of the paper).

pub mod noise;
pub mod perf;
pub mod solver;
pub mod tuner;

pub use noise::{layer_noise, HeNoiseParams, LayerNoise, NoiseRegime};
pub use perf::{conv_ops, fc_ops, layer_ops, OpModel};
pub use solver::{chain_candidates, solve_chain_plan, ChainPlan, LayerPlan};
pub use tuner::{
    tune_layer, tune_network, DesignPoint, InfeasibleLayer, TuneOutcome, TuneSpace, NO_WINDOW,
};
