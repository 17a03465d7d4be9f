//! Accelerator design-space exploration for a workload of your choice:
//! tune HE parameters per layer, map the network onto PE/Lane
//! configurations, and print the power-latency Pareto frontier at 5 nm.
//!
//! Run with: `cargo run --release --example accelerator_dse -- lenet5`
//! (models: lenet300, lenet5, alexnet, vgg16, resnet50)

use cheetah::core::{QuantSpec, Schedule};
use cheetah::nn::models;
use cheetah::paper::explore::{explore, ArchSweep};
use cheetah::paper::ptune::{tune_network, NoiseRegime, TuneSpace};
use cheetah::paper::tech::NODE_5NM;
use cheetah::paper::workload::NetworkWork;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "lenet5".into());
    let net = match which.as_str() {
        "lenet300" => models::lenet300(),
        "alexnet" => models::alexnet(),
        "vgg16" => models::vgg16(),
        "resnet50" => models::resnet50(),
        _ => models::lenet5(),
    };

    // 1. HE-PTune: per-layer parameters.
    let quant = QuantSpec::default();
    let layers = net.linear_layers();
    let t_bits: Vec<u32> = layers
        .iter()
        .map(|l| quant.statistical_plain_bits(l))
        .collect();
    let tuned = match tune_network(
        &layers,
        &t_bits,
        Schedule::PartialAligned,
        NoiseRegime::Statistical,
        &TuneSpace::default(),
    ) {
        Ok(tuned) => tuned,
        Err(err) => {
            eprintln!("{}: no feasible HE parameters: {err}", net.name);
            std::process::exit(1);
        }
    };

    // 2. Map to an accelerator workload.
    let work = NetworkWork::from_tuned(&net.name, &tuned);
    println!(
        "{}: {} output ciphertexts, {:.0} partials ({:.1} per CT)\n",
        net.name,
        work.total_out_cts(),
        work.total_partials(),
        work.mean_partials_per_out_ct()
    );

    // 3. Sweep PEs x Lanes and print the frontier.
    let outcome = explore(&work, &ArchSweep::default(), NODE_5NM);
    println!(
        "{:>5} {:>6} {:>13} {:>10} {:>11} {:>9}",
        "PEs", "lanes", "latency(ms)", "power(W)", "area(mm2)", "laneUtil"
    );
    for r in &outcome.frontier {
        println!(
            "{:>5} {:>6} {:>13.2} {:>10.2} {:>11.0} {:>8.0}%",
            r.pes,
            r.lanes_per_pe,
            r.latency_s * 1e3,
            r.power_w,
            r.area_mm2,
            r.mean_lane_utilization * 100.0
        );
    }
    if let Some(best) = outcome.fastest() {
        println!(
            "\nfastest design: {} PEs x {} lanes at {:.2} ms",
            best.pes,
            best.lanes_per_pe,
            best.latency_s * 1e3
        );
    }
}
