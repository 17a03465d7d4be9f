//! Figure 11: full accelerator design-space exploration for ResNet50 —
//! (a) the power-latency Pareto frontier, (b) runtime breakdown, (c) area
//! breakdown — plus the paper's headline: near-plaintext ResNet50 HE
//! inference at ~30 W and ~545 mm² in 5 nm.

use cheetah_bench::{heading, tune_model};
use cheetah_core::Schedule;
use cheetah_nn::models;
use cheetah_paper::explore::{explore, ArchSweep};
use cheetah_paper::ptune::TuneSpace;
use cheetah_paper::tech::NODE_5NM;
use cheetah_paper::workload::NetworkWork;

fn main() {
    let net = models::resnet50();
    let tuned = tune_model(&net, Schedule::PartialAligned, &TuneSpace::default());
    let work = NetworkWork::from_tuned(&net.name, &tuned);
    println!(
        "ResNet50 workload: {} layers, {} output CTs, {:.0} partials total ({:.1} per CT)",
        work.layers.len(),
        work.total_out_cts(),
        work.total_partials(),
        work.mean_partials_per_out_ct()
    );

    let outcome = explore(&work, &ArchSweep::default(), NODE_5NM);

    heading("Figure 11a — power-latency Pareto frontier (5 nm)");
    println!(
        "{:>4} {:>6} {:>12} {:>10} {:>11} {:>9} {:>7}",
        "PEs", "lanes", "latency(ms)", "power(W)", "area(mm2)", "laneUtil", "netIO"
    );
    for (i, r) in outcome.frontier.iter().enumerate() {
        println!(
            "{:>4} {:>6} {:>12.1} {:>10.1} {:>11.0} {:>8.0}% {:>6.0}%  [{}]",
            r.pes,
            r.lanes_per_pe,
            r.latency_s * 1e3,
            r.power_w,
            r.area_mm2,
            r.mean_lane_utilization * 100.0,
            r.network_io_utilization * 100.0,
            i
        );
    }

    heading("Figure 11b — runtime breakdown per Pareto design");
    println!(
        "{:>4} {:>4}x{:<5} {:>11} {:>8} {:>12} {:>10}",
        "pt", "PEs", "lanes", "transforms", "mult", "rotate-other", "reduction"
    );
    for (i, r) in outcome.frontier.iter().enumerate() {
        println!(
            "{:>4} {:>4}x{:<5} {:>10.0}% {:>7.0}% {:>11.0}% {:>9.0}%",
            i,
            r.pes,
            r.lanes_per_pe,
            r.time.transforms * 100.0,
            r.time.mult * 100.0,
            r.time.rotate_other * 100.0,
            r.time.reduction * 100.0
        );
    }

    heading("Figure 11c — area breakdown per Pareto design (5 nm, mm²)");
    println!(
        "{:>4} {:>4}x{:<5} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "pt", "PEs", "lanes", "laneSRAM", "NTT", "peSRAM", "other", "total"
    );
    for (i, r) in outcome.frontier.iter().enumerate() {
        println!(
            "{:>4} {:>4}x{:<5} {:>10.0} {:>9.0} {:>9.0} {:>9.0} {:>10.0}",
            i,
            r.pes,
            r.lanes_per_pe,
            r.area.lane_sram_mm2,
            r.area.ntt_compute_mm2,
            r.area.pe_sram_mm2,
            r.area.other_compute_mm2,
            r.area_mm2
        );
    }

    heading("Headline — design meeting 100 ms plaintext-class latency");
    match outcome.design_for_target(0.1) {
        Some(r) => println!(
            "{} PEs x {} lanes: {:.1} ms, {:.1} W, {:.0} mm2 @5nm\n(paper: 8x512, 100 ms, ~30 W, ~545 mm2 @5nm)",
            r.pes,
            r.lanes_per_pe,
            r.latency_s * 1e3,
            r.power_w,
            r.area_mm2
        ),
        None => {
            let fastest = outcome.fastest().expect("non-empty frontier");
            println!(
                "no design met 100 ms; fastest is {} PEs x {} lanes at {:.1} ms, {:.1} W, {:.0} mm2",
                fastest.pes,
                fastest.lanes_per_pe,
                fastest.latency_s * 1e3,
                fastest.power_w,
                fastest.area_mm2
            );
        }
    }
}
