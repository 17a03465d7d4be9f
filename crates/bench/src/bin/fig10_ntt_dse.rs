//! Figure 10: design-space exploration for the NTT kernel, with the
//! power-latency Pareto frontier highlighted.

use cheetah_bench::heading;
use cheetah_paper::dse::{power_latency_pareto, sweep_kernel, KernelSweep};
use cheetah_paper::kernels::KernelKind;

fn main() {
    let n = 4096;
    let sweep = KernelSweep::default();
    let points = sweep_kernel(KernelKind::Ntt, n, &sweep);
    let frontier = power_latency_pareto(&points);

    heading(&format!(
        "Figure 10 — NTT kernel DSE at n = {n} (40 nm, 400 MHz): {} points, {} on the Pareto frontier",
        points.len(),
        frontier.len()
    ));
    println!(
        "{:>7} {:>4} {:>12} {:>10} {:>10} {:>10} {:>10}  pareto",
        "unroll", "II", "latency(us)", "power(W)", "area(mm2)", "sram(mm2)", "bw(GB/s)"
    );
    for p in &points {
        let on_frontier = frontier
            .iter()
            .any(|f| f.design.unroll == p.design.unroll && f.design.ii == p.design.ii);
        println!(
            "{:>7} {:>4} {:>12.2} {:>10.3} {:>10.3} {:>10.3} {:>10.1}  {}",
            p.design.unroll,
            p.design.ii,
            p.cost.latency_s * 1e6,
            p.cost.power_w,
            p.cost.area_mm2(),
            p.cost.sram_area_mm2,
            p.cost.sram_bw_gbps,
            if on_frontier { "*" } else { "" }
        );
    }

    heading("Pareto frontier (latency ascending)");
    for p in &frontier {
        println!(
            "u={:<5} II={} -> {:>9.2} us, {:>7.3} W, {:>7.3} mm2",
            p.design.unroll,
            p.design.ii,
            p.cost.latency_s * 1e6,
            p.cost.power_w,
            p.cost.area_mm2()
        );
    }
    let energy_opt = cheetah_paper::dse::energy_optimal(&points).expect("non-empty");
    println!(
        "\nenergy-optimal frontier point: u={} II={} ({:.2} uJ/transform) — the lane building block",
        energy_opt.design.unroll,
        energy_opt.design.ii,
        energy_opt.cost.energy_j * 1e6
    );
}
