//! Figure 6: per-benchmark speedup of HE-PTune and HE-PTune + Sched-PA
//! over the Gazelle baseline, for the five paper models.
//!
//! Paper reference points (§V-C): HE-PTune alone 2.98× harmonic mean
//! (5.25× ignoring MNIST); Sched-PA adds 5.20× (6.11×); combined 13.5×
//! harmonic mean, 79.6× max (30.3× mean without MNIST).

use cheetah_bench::{fmt_mults, heading};
use cheetah_core::QuantSpec;
use cheetah_nn::models;
use cheetah_paper::ptune::TuneSpace;
use cheetah_paper::speedup::{evaluate_model, harmonic_mean};

fn main() {
    let quant = QuantSpec::default();
    let space = TuneSpace::default();

    heading("Figure 6 — speedup over Gazelle (per model)");
    println!(
        "{:<16} {:>12} {:>12} {:>12} | {:>9} {:>12}",
        "model", "Gazelle", "HE-PTune", "PTune+PA", "PTune x", "PTune+PA x"
    );

    let mut ptune_speedups = Vec::new();
    let mut combined_speedups = Vec::new();
    let mut imagenet_ptune = Vec::new();
    let mut imagenet_combined = Vec::new();

    for net in models::paper_benchmarks() {
        let s = evaluate_model(&net, &quant, &space);
        let sp = s.speedup_ptune();
        let sc = s.speedup_combined();
        println!(
            "{:<16} {:>12} {:>12} {:>12} | {:>8.2}x {:>11.2}x",
            s.model,
            fmt_mults(s.gazelle_cost()),
            fmt_mults(s.ptune_cost()),
            fmt_mults(s.ptune_pa_cost()),
            sp,
            sc,
        );
        ptune_speedups.push(sp);
        combined_speedups.push(sc);
        if !net.name.starts_with("LeNet") {
            imagenet_ptune.push(sp);
            imagenet_combined.push(sc);
        }
    }

    heading("Summary (paper: PTune 2.98x h-mean, combined 13.5x h-mean, 79.6x max)");
    println!(
        "HE-PTune      h-mean {:>7.2}x   (ignoring MNIST {:>7.2}x; paper 2.98x / 5.25x)",
        harmonic_mean(&ptune_speedups),
        harmonic_mean(&imagenet_ptune),
    );
    println!(
        "PTune+SchedPA h-mean {:>7.2}x   (ignoring MNIST {:>7.2}x; paper 13.5x / 30.3x)",
        harmonic_mean(&combined_speedups),
        harmonic_mean(&imagenet_combined),
    );
    println!(
        "max combined speedup {:>7.2}x   (paper 79.6x)",
        combined_speedups.iter().fold(0.0f64, |a, &b| a.max(b)),
    );
    let sched_only: Vec<f64> = combined_speedups
        .iter()
        .zip(&ptune_speedups)
        .map(|(c, p)| c / p)
        .collect();
    println!(
        "Sched-PA incremental  h-mean {:>5.2}x, max {:>5.2}x (paper 5.20x mean, 10.2x max)",
        harmonic_mean(&sched_only),
        sched_only.iter().fold(0.0f64, |a, &b| a.max(b)),
    );
}
