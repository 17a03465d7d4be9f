//! Figure 7: (a) kernel time breakdown of HE inference; (b) the limit
//! study deriving per-kernel speedups needed for plaintext latency.
//!
//! Paper reference (ResNet50 on a Xeon E5-2667, 970 s total): NTT 55.2 %,
//! Rotate 31.8 %, Mult 10.3 %, Add 2.2 %, Other 0.5 %; speedups needed:
//! NTT 16384×, Rotate 8192×, Mult 4096×, Add 4096×. Pass `--model lenet5`
//! (default `resnet50`) to profile a different network.

use cheetah_bench::{heading, tune_model};
use cheetah_core::Schedule;
use cheetah_nn::models;
use cheetah_paper::breakdown::network_breakdown;
use cheetah_paper::kernels::KernelTimer;
use cheetah_paper::limit::limit_study;
use cheetah_paper::ptune::TuneSpace;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let model = args
        .iter()
        .position(|a| a == "--model")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("resnet50");
    let net = match model {
        "lenet5" => models::lenet5(),
        "lenet300" => models::lenet300(),
        "alexnet" => models::alexnet(),
        "vgg16" => models::vgg16(),
        _ => models::resnet50(),
    };

    heading(&format!(
        "Figure 7a — kernel time breakdown ({} under HE-PTune + Sched-PA)",
        net.name
    ));
    let tuned = tune_model(&net, Schedule::PartialAligned, &TuneSpace::default());
    let mut timer = KernelTimer::new(10);
    let b = network_breakdown(&tuned, &mut timer);
    let shares = b.shares();
    println!(
        "modeled full-inference time on this host: {:.1} s (paper: 970 s on a Xeon E5-2667 for ResNet50)",
        b.total_s()
    );
    println!(
        "{:<8} {:>10} {:>8}   (paper, ResNet50)",
        "kernel", "seconds", "share"
    );
    for (name, secs, share, paper) in [
        ("NTT", b.ntt_s, shares[0], "55.2%"),
        ("Rotate", b.rotate_s, shares[1], "31.8%"),
        ("Mult", b.mult_s, shares[2], "10.3%"),
        ("Add", b.add_s, shares[3], "2.2%"),
        ("Other", b.other_s, shares[4], "0.5%"),
    ] {
        println!("{name:<8} {secs:>10.2} {share:>7.1}%   ({paper})");
    }

    heading("Figure 7b — speedup needed per kernel for 100 ms plaintext latency");
    let study = limit_study(&b, 0.1);
    println!(
        "{:<8} {:>10}   (paper: NTT 16384x, Rotate 8192x, Mult 4096x, Add 4096x)",
        "kernel", "factor"
    );
    for (kernel, factor) in study.factors {
        println!("{:<8} {:>9}x", kernel.name(), factor);
    }
    println!(
        "final latency {:.1} ms (target {:.0} ms); {} doubling steps",
        study.final_latency_s * 1e3,
        study.target_s * 1e3,
        study.trajectory.len()
    );
    println!("\ntrajectory (kernel doubled -> total latency):");
    for (kernel, factor, latency) in study.trajectory.iter().step_by(4) {
        println!(
            "  {:<8} -> {:>7}x   total {:>10.3} s",
            kernel.name(),
            factor,
            latency
        );
    }
}
