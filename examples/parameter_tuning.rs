//! HE-PTune in action: per-layer BFV parameter tuning for ResNet50,
//! showing how the optimal configuration varies layer by layer (the §IV-C
//! result that a single global parameter set wastes performance).
//!
//! Run with: `cargo run --release --example parameter_tuning`

use cheetah::core::{QuantSpec, Schedule};
use cheetah::nn::models;
use cheetah::paper::ptune::{tune_layer, NoiseRegime, TuneSpace, NO_WINDOW};

fn main() {
    let net = models::resnet50();
    let quant = QuantSpec::default();
    let layers = net.linear_layers();
    let space = TuneSpace::default();

    println!(
        "HE-PTune on {} ({} linear layers, {} candidate configs/layer)\n",
        net.name,
        layers.len(),
        space.size()
    );
    println!(
        "{:<14} {:>7} | {:>6} {:>4} {:>4} {:>8} {:>8} | {:>12} {:>8}",
        "layer", "t bits", "n", "q", "A", "W", "l_ct", "cost(mults)", "budget"
    );

    let mut total_cost = 0.0;
    let mut no_window_layers = 0;
    for (layer_idx, layer) in layers.iter().enumerate() {
        let t_bits = quant.statistical_plain_bits(layer);
        let outcome = tune_layer(
            layer,
            t_bits,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &space,
        );
        let best = outcome.best.expect("feasible configuration");
        total_cost += best.int_mults;
        if best.w_dcmp_log2 == NO_WINDOW {
            no_window_layers += 1;
        }
        // Print a representative sample (first 10 + every 8th after).
        if layer_idx < 10 || layer_idx % 8 == 0 {
            println!(
                "{:<14} {:>7} | {:>6} {:>4} 2^{:<2} {:>8} {:>8} | {:>12.3e} {:>7.1}b",
                layer.name(),
                t_bits,
                best.n,
                best.q_bits,
                best.a_dcmp_log2,
                if best.w_dcmp_log2 == NO_WINDOW {
                    "none".to_owned()
                } else {
                    format!("2^{}", best.w_dcmp_log2)
                },
                best.l_ct(),
                best.int_mults,
                best.budget_bits,
            );
        }
    }
    println!(
        "\ntotal tuned cost: {:.3e} integer multiplications",
        total_cost
    );
    println!(
        "{no_window_layers}/{} layers avoid plaintext decomposition entirely \
         (the §V-C Sched-PA claim)",
        layers.len()
    );
}
