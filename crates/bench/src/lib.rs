//! # cheetah-bench — the evaluation harness
//!
//! One binary per table/figure of the paper's evaluation (run with
//! `cargo run -p cheetah-bench --bin <name> --release`):
//!
//! | Binary | Regenerates |
//! |--------|-------------|
//! | `fig03_ptune_dse` | Fig. 3 — AlexNet HE-parameter DSE scatter + per-layer speedups |
//! | `fig06_speedup` | Fig. 6 — per-model speedups of HE-PTune and Sched-PA over Gazelle |
//! | `fig07_profile` | Fig. 7 — kernel time breakdown + speedup-needed limit study |
//! | `fig08_gpu_ntt` | Fig. 8 — GPU batched-NTT speedup curves |
//! | `fig10_ntt_dse` | Fig. 10 — NTT kernel power-latency Pareto frontier |
//! | `fig11_accel_dse` | Fig. 11 — ResNet50 accelerator DSE + breakdowns |
//! | `table06_generality` | Table VI — AlexNet/VGG16 on the ResNet50 design |
//!
//! Three more binaries time the engine itself: `bench_he_ops` (ns per HE
//! operator, NTT and FC layer → `BENCH_he_ops.json`), `bench_throughput`
//! (multi-client serving → `BENCH_throughput.json`) and `bench_e2e` (the
//! whole-inference benchmark `BENCHMARK.json` declares).

use cheetah_core::{QuantSpec, Schedule};
use cheetah_nn::{LinearLayer, Network};
use cheetah_paper::ptune::{tune_network, DesignPoint, NoiseRegime, TuneSpace};

/// Tunes every linear layer of a network (the standard pipeline used by
/// several figure binaries).
///
/// # Panics
///
/// Panics when the space has no feasible configuration for some layer —
/// the figure binaries run the paper's benchmarks, for which the default
/// space always does.
pub fn tune_model(
    net: &Network,
    schedule: Schedule,
    space: &TuneSpace,
) -> Vec<(LinearLayer, DesignPoint)> {
    let quant = QuantSpec::default();
    let layers = net.linear_layers();
    let t_bits: Vec<u32> = layers
        .iter()
        .map(|l| quant.statistical_plain_bits(l))
        .collect();
    tune_network(&layers, &t_bits, schedule, NoiseRegime::Statistical, space)
        .unwrap_or_else(|e| panic!("{}: {e}", net.name))
}

/// Prints a horizontal rule and a section heading.
pub fn heading(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Formats a number of integer multiplications in engineering notation.
pub fn fmt_mults(m: f64) -> String {
    if m >= 1e12 {
        format!("{:.2}T", m / 1e12)
    } else if m >= 1e9 {
        format!("{:.2}G", m / 1e9)
    } else if m >= 1e6 {
        format!("{:.2}M", m / 1e6)
    } else {
        format!("{:.0}", m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_mults_ranges() {
        assert_eq!(fmt_mults(5.0e12), "5.00T");
        assert_eq!(fmt_mults(5.0e9), "5.00G");
        assert_eq!(fmt_mults(5.0e6), "5.00M");
        assert_eq!(fmt_mults(512.0), "512");
    }

    #[test]
    fn tune_model_runs_on_lenet300() {
        let tuned = tune_model(
            &cheetah_nn::models::lenet300(),
            Schedule::PartialAligned,
            &TuneSpace::default(),
        );
        assert_eq!(tuned.len(), 3);
    }
}
