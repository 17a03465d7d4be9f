//! Plaintext fixed-point inference — the correctness reference HE results
//! are compared against, and the "plaintext latency" baseline of the
//! profiling study (§VI).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layer::{Layer, LinearLayer};
use crate::models::Network;
use crate::tensor::{conv2d, fully_connected, max_pool, relu, sum_pool, Tensor};

/// Weight set for a network: one tensor per linear layer, in
/// [`Network::linear_layers`] order (projection convs included).
#[derive(Debug, Clone)]
pub struct Weights {
    tensors: Vec<Tensor>,
    /// Magnitude bound used at generation time (weights are in
    /// `[-bound, bound]`).
    bound: i64,
}

impl Weights {
    /// Samples uniform integer weights in `[-bound, bound]` for every
    /// linear layer, reproducibly from `seed`.
    pub fn random(net: &Network, bound: i64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let tensors = net
            .linear_layers()
            .iter()
            .map(|l| {
                let shape: Vec<usize> = match l {
                    LinearLayer::Conv(c) => vec![c.co, c.ci, c.fw, c.fw],
                    LinearLayer::Fc(f) => vec![f.no, f.ni],
                };
                let len: usize = shape.iter().product();
                Tensor::from_data(
                    &shape,
                    (0..len).map(|_| rng.random_range(-bound..=bound)).collect(),
                )
            })
            .collect();
        Self { tensors, bound }
    }

    /// The weight tensor for the `i`-th linear layer.
    pub fn layer(&self, i: usize) -> &Tensor {
        &self.tensors[i]
    }

    /// Number of weight tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether there are no weights.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// The magnitude bound the weights were drawn with.
    pub fn bound(&self) -> i64 {
        self.bound
    }

    /// Bits needed to represent a weight (`ceil(log2(bound)) + 1` sign bit).
    pub fn weight_bits(&self) -> u32 {
        64 - (self.bound.unsigned_abs()).leading_zeros() + 1
    }

    /// Structured pruning to (at least) a target sparsity fraction,
    /// reproducible from `seed`. Pruning follows the units the
    /// homomorphic layers can actually skip, not scattered scalars:
    ///
    /// * FC tensors (`[no, ni]`) zero whole **folded diagonals**
    ///   ([`crate::layer::folded_diagonals`]): cell `(r, c)` lies on
    ///   exactly the one diagonal `k = (c − r) mod g` the homomorphic
    ///   layer prepares a mask for — the unit one multiply serves — and
    ///   that is the unit that dies.
    /// * Conv tensors (`[co, ci, fw, fw]`) zero whole **`(d, tap)` masks**:
    ///   tap `tap` of every cell `(o, c)` on channel block-diagonal
    ///   `d = (c − o) mod next_pow2(ci)`
    ///   ([`crate::layer::channel_diagonal`]) — the unit one multiply of
    ///   the packed convolution serves.
    ///
    /// `frac` of each tensor's units (rounded down) are chosen by a
    /// seeded Fisher–Yates pass per layer; `frac ≥ 1.0` zeroes the layer
    /// entirely.
    pub fn prune_to_sparsity(&mut self, frac: f64, seed: u64) {
        let frac = frac.clamp(0.0, 1.0);
        for (idx, tensor) in self.tensors.iter_mut().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9e37_79b9));
            match *tensor.shape() {
                [no, ni] => {
                    let g = crate::layer::folded_diagonals(no, ni);
                    let dead = pick_units(g, frac, &mut rng);
                    let data = tensor.data_mut();
                    for r in 0..no {
                        for c in 0..ni {
                            // Cell (r, c) lies on the folded diagonal
                            // k ≡ c − r (mod g).
                            let class = ((c % g) + g - (r % g)) % g;
                            if dead[class] {
                                data[r * ni + c] = 0;
                            }
                        }
                    }
                }
                [_co, ci, fw, fh] => {
                    let taps = fw * fh;
                    let dead = pick_units(ci.next_power_of_two() * taps, frac, &mut rng);
                    for (i, v) in tensor.data_mut().iter_mut().enumerate() {
                        let (cell, tap) = (i / taps, i % taps);
                        let d = crate::layer::channel_diagonal(cell / ci, cell % ci, ci);
                        if dead[d * taps + tap] {
                            *v = 0;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Rounds every weight to the nearest signed power of two (ties keep
    /// the smaller magnitude; zero stays zero), clamped to `2^max_exp`.
    pub fn round_to_pow2(&mut self, max_exp: u32) {
        for tensor in &mut self.tensors {
            for w in tensor.data_mut() {
                *w = round_weight_to_pow2(*w, max_exp);
            }
        }
        self.bound = self.bound.min(1i64 << max_exp);
    }

    /// Fraction of zero weights across all layers.
    pub fn sparsity(&self) -> f64 {
        let (zeros, total) = self.tensors.iter().fold((0usize, 0usize), |(z, t), w| {
            (
                z + w.data().iter().filter(|&&v| v == 0).count(),
                t + w.data().len(),
            )
        });
        if total == 0 {
            0.0
        } else {
            zeros as f64 / total as f64
        }
    }
}

/// Seeded Fisher–Yates selection of `⌊frac·n⌋` dead units out of `n`.
fn pick_units(n: usize, frac: f64, rng: &mut StdRng) -> Vec<bool> {
    let kill = ((n as f64) * frac).floor() as usize;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut dead = vec![false; n];
    for &u in order.iter().take(kill) {
        dead[u] = true;
    }
    dead
}

/// Nearest signed power of two (linear distance, ties toward the smaller
/// magnitude); zero stays zero; magnitude clamped to `2^max_exp`.
pub fn round_weight_to_pow2(w: i64, max_exp: u32) -> i64 {
    if w == 0 {
        return 0;
    }
    let mag = w.unsigned_abs();
    let floor_exp = 63 - mag.leading_zeros();
    let exp = if floor_exp >= max_exp {
        max_exp
    } else {
        let lo = 1u64 << floor_exp;
        let hi = lo << 1;
        if mag - lo <= hi - mag {
            floor_exp
        } else {
            floor_exp + 1
        }
    };
    let q = 1i64 << exp.min(max_exp);
    if w < 0 {
        -q
    } else {
        q
    }
}

/// Accuracy cost of the pow2 weight regime for one model: compares a
/// plaintext forward pass with integer weights against the same weights
/// rounded to signed powers of two, over deterministic inputs.
#[derive(Debug, Clone)]
pub struct Pow2Report {
    /// Model name.
    pub model: String,
    /// Fraction of output entries that match exactly.
    pub exact_match: f64,
    /// Mean relative error of the pow2 outputs (`|Δ| / max(1, |ref|)`).
    pub mean_rel_err: f64,
    /// Worst relative error over all outputs and inputs.
    pub max_rel_err: f64,
    /// Fraction of zero weights after rounding (pow2 keeps zeros).
    pub sparsity: f64,
}

/// Builds the pow2 accuracy-vs-speed report for a network: `count`
/// deterministic inputs, integer weights vs their pow2 rounding.
pub fn pow2_accuracy_report(
    net: &Network,
    weights: &Weights,
    max_exp: u32,
    input_bound: i64,
    seed: u64,
    count: usize,
) -> Pow2Report {
    let mut p2 = weights.clone();
    p2.round_to_pow2(max_exp);
    let mut exact = 0usize;
    let mut total = 0usize;
    let mut err_sum = 0.0f64;
    let mut err_max = 0.0f64;
    for i in 0..count {
        let input = random_input(&net.input_shape, input_bound, seed + i as u64);
        let reference = infer(net, weights, &input).output;
        let rounded = infer(net, &p2, &input).output;
        for (&r, &p) in reference.data().iter().zip(rounded.data()) {
            let rel = (r - p).abs() as f64 / (r.abs().max(1)) as f64;
            if rel == 0.0 {
                exact += 1;
            }
            err_sum += rel;
            err_max = err_max.max(rel);
            total += 1;
        }
    }
    Pow2Report {
        model: net.name.clone(),
        exact_match: exact as f64 / total.max(1) as f64,
        mean_rel_err: err_sum / total.max(1) as f64,
        max_rel_err: err_max,
        sparsity: p2.sparsity(),
    }
}

/// Result of a plaintext forward pass.
#[derive(Debug, Clone)]
pub struct InferenceTrace {
    /// Final output activations.
    pub output: Tensor,
    /// Activation after every layer (index-aligned with
    /// [`Network::layers`]).
    pub activations: Vec<Tensor>,
    /// Per-linear-layer output magnitude (`‖·‖_∞`), used to derive the
    /// plaintext-modulus precision HE-PTune must provision.
    pub linear_out_magnitudes: Vec<i64>,
}

/// Runs plaintext fixed-point inference.
///
/// # Panics
///
/// Panics if shapes are inconsistent or a residual link points forward.
pub fn infer(net: &Network, weights: &Weights, input: &Tensor) -> InferenceTrace {
    let mut act = input.clone();
    let mut activations: Vec<Tensor> = Vec::with_capacity(net.layers.len());
    let mut linear_out_magnitudes = Vec::new();
    let mut linear_idx = 0usize;
    for layer in &net.layers {
        act = match layer {
            Layer::Linear(LinearLayer::Conv(c)) => {
                let out = conv2d(&act, weights.layer(linear_idx), c.stride, c.pad);
                linear_idx += 1;
                linear_out_magnitudes.push(out.abs_max());
                out
            }
            Layer::Linear(LinearLayer::Fc(_)) => {
                let out = fully_connected(&act, weights.layer(linear_idx));
                linear_idx += 1;
                linear_out_magnitudes.push(out.abs_max());
                out
            }
            Layer::Relu => relu(&act),
            Layer::MaxPool { k, stride } => max_pool(&act, *k, *stride),
            Layer::SumPool { k, stride } => sum_pool(&act, *k, *stride),
            Layer::Flatten => act.clone().into_flat(),
            Layer::ResidualAdd { from, projection } => {
                assert!(
                    *from < activations.len(),
                    "residual link must point backward"
                );
                let skip = &activations[*from];
                let skip = match projection {
                    Some(p) => {
                        let out = conv2d(skip, weights.layer(linear_idx), p.stride, p.pad);
                        linear_idx += 1;
                        linear_out_magnitudes.push(out.abs_max());
                        out
                    }
                    None => skip.clone(),
                };
                act.add(&skip)
            }
        };
        activations.push(act.clone());
    }
    InferenceTrace {
        output: act,
        activations,
        linear_out_magnitudes,
    }
}

/// Generates a deterministic input tensor with values in `[-bound, bound]`.
pub fn random_input(shape: &[usize], bound: i64, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let len: usize = shape.iter().product();
    Tensor::from_data(
        shape,
        (0..len).map(|_| rng.random_range(-bound..=bound)).collect(),
    )
}

/// A deterministic multi-client workload: `count` input tensors, client
/// `i` drawn from seed `base_seed + i`. Serving suites and throughput
/// benches use this so every client's input is reproducible in isolation
/// (re-running client `i` alone regenerates exactly its tensor).
pub fn client_inputs(shape: &[usize], bound: i64, base_seed: u64, count: usize) -> Vec<Tensor> {
    (0..count)
        .map(|i| random_input(shape, bound, base_seed + i as u64))
        .collect()
}

/// Reference single-layer evaluation for HE cross-checks: applies one
/// linear layer (with the given weight tensor) to an input.
pub fn eval_linear(layer: &LinearLayer, weight: &Tensor, input: &Tensor) -> Tensor {
    match layer {
        LinearLayer::Conv(c) => conv2d(input, weight, c.stride, c.pad),
        LinearLayer::Fc(_) => fully_connected(input, weight),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{lenet5, resnet50, tiny_cnn};

    #[test]
    fn tiny_cnn_forward_pass_shapes() {
        let net = tiny_cnn();
        let weights = Weights::random(&net, 3, 1);
        let input = random_input(&net.input_shape, 7, 2);
        let trace = infer(&net, &weights, &input);
        assert_eq!(trace.output.shape(), &[4]);
        assert_eq!(trace.activations.len(), net.layers.len());
        assert_eq!(trace.linear_out_magnitudes.len(), 3);
    }

    #[test]
    fn lenet5_forward_pass() {
        let net = lenet5();
        let weights = Weights::random(&net, 2, 3);
        let input = random_input(&net.input_shape, 4, 4);
        let trace = infer(&net, &weights, &input);
        assert_eq!(trace.output.shape(), &[10]);
        // Output magnitudes must be bounded by dot-length * products.
        for (l, &m) in net.linear_layers().iter().zip(&trace.linear_out_magnitudes) {
            assert!(m >= 0);
            let bound = l.dot_length() as i64 * 2 * 4 * 20; // slack for relu'd activations
            assert!(m <= bound.max(1) * 100, "layer {} magnitude {m}", l.name());
        }
    }

    #[test]
    fn resnet50_residual_links_are_backward_and_consistent() {
        let net = resnet50();
        for (i, l) in net.layers.iter().enumerate() {
            if let Layer::ResidualAdd { from, .. } = l {
                assert!(*from < i, "layer {i} links forward to {from}");
            }
        }
    }

    #[test]
    fn resnet50_tiny_slice_runs() {
        // Run just the stem + first bottleneck on a downscaled input to
        // validate residual plumbing without a 4-GMAC pass in debug mode.
        let full = resnet50();
        let mut layers = full.layers[..10].to_vec(); // stem + first block + relu
                                                     // Rescale stem conv to a 16x16 input.
        if let Layer::Linear(LinearLayer::Conv(c)) = &mut layers[0] {
            c.w = 16;
        }
        // Rescale block convs from 56 -> 4.
        for l in layers.iter_mut().skip(1) {
            match l {
                Layer::Linear(LinearLayer::Conv(c)) => c.w = 4,
                Layer::ResidualAdd {
                    projection: Some(p),
                    ..
                } => p.w = 4,
                _ => {}
            }
        }
        let net = Network {
            name: "ResNetStem".into(),
            input_shape: vec![3, 16, 16],
            layers,
        };
        let weights = Weights::random(&net, 2, 5);
        let input = random_input(&net.input_shape, 3, 6);
        let trace = infer(&net, &weights, &input);
        assert_eq!(trace.output.shape(), &[256, 4, 4]);
    }

    #[test]
    fn residual_add_is_sum_of_paths() {
        // A network that is just  x -> conv(1x1, w=1) -> add skip  should
        // produce 2x when the conv weight is 1.
        let net = Network {
            name: "skip".into(),
            input_shape: vec![1, 4, 4],
            layers: vec![
                Layer::conv("c", 4, 1, 1, 1, 1, 0),
                Layer::ResidualAdd {
                    from: 0,
                    projection: None,
                },
            ],
        };
        // ResidualAdd{from: 0} adds the conv output to itself -> 2*conv(x).
        let mut weights = Weights::random(&net, 1, 7);
        weights.tensors[0] = Tensor::from_data(&[1, 1, 1, 1], vec![1]);
        let input = random_input(&[1, 4, 4], 5, 8);
        let trace = infer(&net, &weights, &input);
        let expect: Vec<i64> = input.data().iter().map(|&v| 2 * v).collect();
        assert_eq!(trace.output.data(), &expect[..]);
    }

    #[test]
    fn weight_bits_formula() {
        let net = tiny_cnn();
        let w = Weights::random(&net, 7, 1);
        assert_eq!(w.weight_bits(), 4); // 3 magnitude bits + sign
        let w = Weights::random(&net, 8, 1);
        assert_eq!(w.weight_bits(), 5);
    }

    #[test]
    fn structured_pruning_kills_whole_units_deterministically() {
        // FC: a square layer's units are its ni generalized diagonals.
        let net = Network {
            name: "fc".into(),
            input_shape: vec![16],
            layers: vec![Layer::fc("f", 16, 16)],
        };
        let mut w = Weights::random(&net, 7, 11);
        let mut w2 = w.clone();
        w.prune_to_sparsity(0.5, 99);
        w2.prune_to_sparsity(0.5, 99);
        assert_eq!(w.layer(0).data(), w2.layer(0).data(), "seeded prune");
        let data = w.layer(0).data();
        let mut dead_diags = 0;
        for k in 0..16 {
            let cells: Vec<i64> = (0..16)
                .map(|j| data[(j % 16) * 16 + (j + k) % 16])
                .collect();
            let zero = cells.iter().all(|&v| v == 0);
            let live = cells.iter().any(|&v| v != 0);
            assert!(zero || live);
            if zero {
                dead_diags += 1;
            }
        }
        assert_eq!(dead_diags, 8, "half the diagonal units die whole");

        // Conv: units are (channel block-diagonal, tap) masks across all
        // output channels. Three input channels pad to four diagonals.
        let cnet = Network {
            name: "conv".into(),
            input_shape: vec![3, 4, 4],
            layers: vec![Layer::conv("c", 4, 3, 3, 5, 1, 1)],
        };
        let mut cw = Weights::random(&cnet, 3, 12);
        // Zero-free weights, so a unit is dead iff pruning killed it.
        for v in cw.tensors[0].data_mut() {
            *v = if *v == 0 { 1 } else { *v };
        }
        cw.prune_to_sparsity(0.5, 7);
        let conv = cw.layer(0);
        let (co, ci, taps) = (5, 3, 9);
        let mut dead_units = 0;
        for d in 0..4 {
            for tap in 0..taps {
                let vals: Vec<i64> = (0..co)
                    .filter(|o| (o + d) % 4 < ci)
                    .map(|o| conv.data()[(o * ci + (o + d) % 4) * taps + tap])
                    .collect();
                let zero = vals.iter().all(|&v| v == 0);
                assert!(zero || vals.iter().all(|&v| v != 0), "units die whole");
                dead_units += usize::from(zero);
            }
        }
        assert_eq!(dead_units, 18, "half the 36 (d, tap) units die");
        let cnet = tiny_cnn();

        // frac = 1.0 zeroes everything.
        let mut all = Weights::random(&cnet, 3, 13);
        all.prune_to_sparsity(1.0, 1);
        assert_eq!(all.sparsity(), 1.0);
    }

    #[test]
    fn pow2_rounding_and_report() {
        let net = tiny_cnn();
        let mut w = Weights::random(&net, 15, 21);
        w.round_to_pow2(3);
        for i in 0..w.len() {
            for &v in w.layer(i).data() {
                assert!(
                    v == 0 || (v.unsigned_abs().is_power_of_two() && v.abs() <= 8),
                    "rounded weight {v} is not a bounded signed power of two"
                );
            }
        }
        let w = Weights::random(&net, 15, 21);
        let report = pow2_accuracy_report(&net, &w, 3, 5, 33, 4);
        assert_eq!(report.model, net.name);
        assert!(report.mean_rel_err >= 0.0 && report.mean_rel_err <= report.max_rel_err);
        assert!(
            report.max_rel_err < 2.0,
            "pow2 rounding halves a weight at worst; outputs stay the same scale (got {})",
            report.max_rel_err
        );
        assert!((0.0..=1.0).contains(&report.exact_match));
        // Pure pow2 weights round to themselves: a report on already-pow2
        // weights is exact.
        let mut p2 = Weights::random(&net, 15, 22);
        p2.round_to_pow2(3);
        let exact = pow2_accuracy_report(&net, &p2, 3, 5, 34, 2);
        assert_eq!(exact.exact_match, 1.0);
        assert_eq!(exact.max_rel_err, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let net = tiny_cnn();
        let w1 = Weights::random(&net, 3, 42);
        let w2 = Weights::random(&net, 3, 42);
        let i1 = random_input(&net.input_shape, 5, 43);
        let i2 = random_input(&net.input_shape, 5, 43);
        assert_eq!(infer(&net, &w1, &i1).output, infer(&net, &w2, &i2).output);
    }
}
