//! Figure 3: HE-PTune parameter design-space exploration for AlexNet.
//!
//! (a)/(b): the scatter of evaluated HE configurations per layer ("Total
//! MACs" vs remaining noise budget), with the Gazelle global configuration
//! and the HE-PTune optimum highlighted. (c): per-layer speedup bars.

use cheetah_bench::{fmt_mults, heading};
use cheetah_core::{QuantSpec, Schedule};
use cheetah_nn::models;
use cheetah_paper::baseline::gazelle_config;
use cheetah_paper::ptune::{tune_layer, NoiseRegime, TuneSpace};
use cheetah_paper::speedup::harmonic_mean;

fn main() {
    let net = models::alexnet();
    let quant = QuantSpec::default();
    let layers = net.linear_layers();
    let space = TuneSpace::default();

    // Gazelle: the legacy fixed configuration (worst layer precision).
    let t_global = quant.statistical_plain_bits_network(&layers);
    let gazelle = gazelle_config(&layers, t_global, space.sigma)
        .expect("Gazelle baseline must exist for AlexNet");

    heading("Figure 3 — HE parameter design-space exploration (AlexNet)");
    println!(
        "Gazelle global config: n=2^{}  q={}b  t={}b  A=2^{}  W=2^{}",
        gazelle.point.n.ilog2(),
        gazelle.point.q_bits,
        gazelle.point.t_bits,
        gazelle.point.a_dcmp_log2,
        gazelle.point.w_dcmp_log2,
    );
    println!(
        "space: {} candidate configurations per layer\n",
        space.size()
    );

    let mut speedups = Vec::new();
    println!(
        "{:<8} {:>6} {:>10} {:>9} | {:>10} {:>8} | {:>9} {:>9} {:>8}",
        "layer",
        "points",
        "infeas%",
        "t(bits)",
        "opt MACs",
        "budget",
        "gzl MACs",
        "gzlbudget",
        "speedup"
    );
    for (i, layer) in layers.iter().enumerate() {
        let t_bits = quant.statistical_plain_bits(layer);
        let outcome = tune_layer(
            layer,
            t_bits,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &space,
        );
        let best = outcome.best.expect("feasible point");
        let gzl_cost = gazelle.layer_costs[i];
        let gzl_budget = gazelle.layer_budgets[i];
        let speedup = gzl_cost / best.int_mults;
        speedups.push(speedup);
        println!(
            "{:<8} {:>6} {:>9.1}% {:>9} | {:>10} {:>7.1}b | {:>9} {:>8.1}b {:>7.2}x",
            layer.name(),
            outcome.points.len(),
            outcome.infeasible_fraction() * 100.0,
            t_bits,
            fmt_mults(best.int_mults),
            best.budget_bits,
            fmt_mults(gzl_cost),
            gzl_budget,
            speedup,
        );
    }
    println!(
        "\nharmonic-mean per-layer speedup: {:.2}x   max: {:.2}x",
        harmonic_mean(&speedups),
        speedups.iter().fold(0.0f64, |a, &b| a.max(b)),
    );

    // Scatter sample for one layer (paper plots Layer5/Layer0): dump a
    // decimated (MACs, budget) cloud for external plotting.
    heading("Scatter sample — first FC layer (cf. Fig. 3a)");
    let fc = layers
        .iter()
        .find(|l| matches!(l, cheetah_nn::LinearLayer::Fc(_)))
        .expect("AlexNet has FC layers");
    let outcome = tune_layer(
        fc,
        quant.statistical_plain_bits(fc),
        Schedule::PartialAligned,
        NoiseRegime::Statistical,
        &space,
    );
    println!("{:>12} {:>12}", "MACs", "budget(bits)");
    for p in outcome.points.iter().step_by(37) {
        println!("{:>12} {:>12.1}", fmt_mults(p.int_mults), p.budget_bits);
    }
    let best = outcome.best.unwrap();
    println!(
        "optimal: {} MACs at {:.1} bits remaining (paper finds optima leaving ~1 bit)",
        fmt_mults(best.int_mults),
        best.budget_bits
    );
}
