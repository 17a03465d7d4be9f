//! The benchmark's four workloads: two LeNet-class networks built from
//! the public `Network`/`Layer` constructors, two parameter chains, and
//! the rules that turn `--seed` into weights, inputs and client keys.
//!
//! The zoo's `lenet5()`/`lenet300()` cannot run under HE today: `HomFc`
//! needs a power-of-two `n_i` and `HomConv2d` only packs 'same'
//! convolutions, so the benchmark nets keep the LeNet shape (conv-pool
//! pairs feeding FC layers; a three-layer MLP) at sizes the packers
//! accept.

use cheetah_bfv::BfvParams;
use cheetah_nn::{random_input, Layer, Network, Tensor, Weights};

/// Polynomial degree of both chains (the named presets, untouched).
const DEGREE: usize = 4096;

/// Every input activation lies in `[-INPUT_BOUND, INPUT_BOUND]`.
const INPUT_BOUND: i64 = 3;

/// Seed of `fleet_sparse`'s pruning *pattern*. Which diagonals are dead
/// decides the rotation plan, the Galois-key set and so every byte and
/// op count; that is part of the workload's definition, so it does not
/// follow `--seed` (weight values and inputs do).
const PRUNE_PATTERN_SEED: u64 = 0x5ba5_e11e;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Net {
    Mlp,
    Cnn,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chain {
    /// `preset_rns_3x36`: three 36-bit limbs, digit key switching.
    Digit3x36,
    /// `preset_hybrid_2x36`: two 36-bit limbs plus a special prime.
    Hybrid2x36,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    net: Net,
    chain: Chain,
    /// Clients per closed-loop step: 1 drives the session halves
    /// directly, more go through one `ServerPool` as a fleet.
    pub fleet: usize,
    /// Dense `random(1)` weights, or `random(2)` pruned to 90 % and
    /// rounded to powers of two.
    sparse_pow2: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mlp_digit",
        net: Net::Mlp,
        chain: Chain::Digit3x36,
        fleet: 1,
        sparse_pow2: false,
    },
    Workload {
        name: "cnn_digit",
        net: Net::Cnn,
        chain: Chain::Digit3x36,
        fleet: 1,
        sparse_pow2: false,
    },
    Workload {
        name: "mlp_hybrid",
        net: Net::Mlp,
        chain: Chain::Hybrid2x36,
        fleet: 1,
        sparse_pow2: false,
    },
    Workload {
        name: "fleet_sparse",
        net: Net::Mlp,
        chain: Chain::Hybrid2x36,
        fleet: 8,
        sparse_pow2: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// FC 1024→256 · ReLU · FC 256→64 · ReLU · FC 64→16.
fn bench_mlp() -> Network {
    Network {
        name: "bench_mlp".into(),
        input_shape: vec![1024],
        layers: vec![
            Layer::fc("fc1", 1024, 256),
            Layer::Relu,
            Layer::fc("fc2", 256, 64),
            Layer::Relu,
            Layer::fc("fc3", 64, 16),
        ],
    }
}

/// 1×16×16 · conv3×3(1→8) · ReLU · maxpool2 · conv3×3(8→16) · ReLU ·
/// maxpool2 · flatten · FC 256→16.
fn bench_cnn() -> Network {
    Network {
        name: "bench_cnn".into(),
        input_shape: vec![1, 16, 16],
        layers: vec![
            Layer::conv("conv1", 16, 3, 1, 8, 1, 1),
            Layer::Relu,
            Layer::MaxPool { k: 2, stride: 2 },
            Layer::conv("conv2", 8, 3, 8, 16, 1, 1),
            Layer::Relu,
            Layer::MaxPool { k: 2, stride: 2 },
            Layer::Flatten,
            Layer::fc("fc", 256, 16),
        ],
    }
}

/// Independent, reproducible seed streams from the one `--seed`.
fn derive(seed: u64, stream: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream << 48)
        .wrapping_add(index as u64)
}

impl Workload {
    pub fn network(&self) -> Network {
        match self.net {
            Net::Mlp => bench_mlp(),
            Net::Cnn => bench_cnn(),
        }
    }

    pub fn params(&self) -> Result<BfvParams, cheetah_bfv::Error> {
        match self.chain {
            Chain::Digit3x36 => BfvParams::preset_rns_3x36(DEGREE),
            Chain::Hybrid2x36 => BfvParams::preset_hybrid_2x36(DEGREE),
        }
    }

    /// The model's weights. `mlp_digit` and `mlp_hybrid` get the same
    /// ones for the same seed, so the pair differs only in the chain.
    pub fn weights(&self, net: &Network, seed: u64) -> Weights {
        if self.sparse_pow2 {
            let mut weights = Weights::random(net, 2, derive(seed, 1, 0));
            weights.prune_to_sparsity(0.9, PRUNE_PATTERN_SEED);
            weights.round_to_pow2(3);
            weights
        } else {
            Weights::random(net, 1, derive(seed, 1, 0))
        }
    }

    /// Input of the `index`-th session of a run.
    pub fn input(&self, net: &Network, seed: u64, index: usize) -> Tensor {
        random_input(&net.input_shape, INPUT_BOUND, derive(seed, 2, index))
    }

    /// Key/encryption seed of the `index`-th session of a run.
    pub fn client_seed(&self, seed: u64, index: usize) -> u64 {
        derive(seed, 3, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn the_mlp_twins_share_weights_and_inputs() {
        let (digit, hybrid) = (find("mlp_digit").unwrap(), find("mlp_hybrid").unwrap());
        let net = digit.network();
        assert_eq!(net, hybrid.network());
        assert_eq!(
            digit.weights(&net, 7).layer(0).data(),
            hybrid.weights(&net, 7).layer(0).data()
        );
        assert_eq!(
            digit.input(&net, 7, 3).data(),
            hybrid.input(&net, 7, 3).data()
        );
        assert_ne!(
            digit.input(&net, 7, 3).data(),
            digit.input(&net, 8, 3).data()
        );
        assert_ne!(
            digit.input(&net, 7, 3).data(),
            digit.input(&net, 7, 4).data()
        );
    }

    #[test]
    fn sparse_pattern_is_fixed_while_values_follow_the_seed() {
        let w = find("fleet_sparse").unwrap();
        let net = w.network();
        let (a, b) = (w.weights(&net, 1), w.weights(&net, 2));
        assert_ne!(a.layer(0).data(), b.layer(0).data());
        // 230 of FC1's 256 diagonal classes are pruned, the same ones for
        // every seed; the other zeros are values that happened to draw 0.
        let pruned_in_both = (a.layer(0).data().iter().zip(b.layer(0).data()))
            .filter(|(x, y)| **x == 0 && **y == 0)
            .count();
        let cells = a.layer(0).data().len();
        assert!(
            pruned_in_both >= cells * 230 / 256,
            "{pruned_in_both} of {cells}"
        );
        assert!(a.sparsity() < 0.95 && b.sparsity() < 0.95);
    }
}
