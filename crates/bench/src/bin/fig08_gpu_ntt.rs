//! Figure 8: NTT GPU speedup over CPU, by batch size and transform size.
//!
//! Paper reference: cuHE on a GTX 1080-Ti saturates near 120× at batch
//! 512/1024 (70 % warp occupancy, 85 % warp execution efficiency).
//! Reproduced with the SIMT analytical model (no GPU exists here).

use cheetah_bench::heading;
use cheetah_paper::simt::{figure8_sweep, CpuSpec, GpuSpec};

fn main() {
    let verbose = std::env::args().any(|a| a == "--verbose");

    heading("Figure 8 — modeled GPU (1080-Ti) batched-NTT speedup over CPU");
    let sweep = figure8_sweep(&GpuSpec::default(), &CpuSpec::default());
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "batch", "n=16K", "n=32K", "n=64K"
    );
    let mut batch = 1usize;
    while batch <= 1024 {
        let row: Vec<f64> = [16384usize, 32768, 65536]
            .iter()
            .map(|&n| {
                sweep
                    .iter()
                    .find(|p| p.n == n && p.batch == batch)
                    .map(|p| p.speedup)
                    .unwrap_or(0.0)
            })
            .collect();
        println!(
            "{:>8} {:>9.1}x {:>9.1}x {:>9.1}x",
            batch, row[0], row[1], row[2]
        );
        batch *= 2;
    }
    let sat = sweep
        .iter()
        .find(|p| p.n == 16384 && p.batch == 512)
        .expect("sweep point");
    println!(
        "\nsaturation at batch 512 (n=16K): {:.0}x, occupancy {:.0}% (paper: ~120x, 70%)",
        sat.speedup,
        sat.occupancy * 100.0
    );

    if verbose {
        heading("Model internals at batch 512");
        println!(
            "gpu latency {:.3} ms, cpu latency {:.1} ms",
            sat.gpu_s * 1e3,
            sat.cpu_s * 1e3
        );
    }
}
