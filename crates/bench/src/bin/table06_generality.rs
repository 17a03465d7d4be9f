//! Table VI: accelerator generality — VGG16 and AlexNet running on the
//! accelerator tuned for ResNet50 (the paper's "PT-ResNet50" design),
//! versus their own ideal designs.
//!
//! Paper reference: ResNet50 100 ms (8 PE × 512 lanes), VGG16 215 ms
//! (+59 % vs its 16×256 ideal), AlexNet 77 ms (+28 % vs its 16×128 ideal).

use cheetah_bench::{heading, tune_model};
use cheetah_core::Schedule;
use cheetah_nn::models;
use cheetah_paper::explore::ArchSweep;
use cheetah_paper::generality::generality_study;
use cheetah_paper::ptune::TuneSpace;
use cheetah_paper::tech::NODE_5NM;
use cheetah_paper::workload::NetworkWork;

fn main() {
    let space = TuneSpace::default();
    let make = |net: cheetah_nn::Network| {
        let tuned = tune_model(&net, Schedule::PartialAligned, &space);
        NetworkWork::from_tuned(&net.name, &tuned)
    };
    let resnet = make(models::resnet50());
    let vgg = make(models::vgg16());
    let alex = make(models::alexnet());

    let study = generality_study(&resnet, &[vgg, alex], &ArchSweep::default(), NODE_5NM, 0.1);

    heading("Table VI — performance on the PT-ResNet50 accelerator");
    println!(
        "shared design: {} PEs x {} lanes (paper: 8 x 512)\n",
        study.shared.0, study.shared.1
    );
    println!(
        "{:<10} {:>10} {:>10} {:>11} {:>11} {:>8}",
        "Model", "Lat(ms)", "Increase", "ideal P-L", "OutCT", "Prt u"
    );
    for row in &study.rows {
        println!(
            "{:<10} {:>10.1} {:>9.0}% {:>6}-{:<5} {:>11.2}K {:>8.1}",
            row.model,
            row.latency_ms,
            row.increase_pct,
            row.ideal_pes_lanes.0,
            row.ideal_pes_lanes.1,
            row.out_ct_thousands,
            row.partials_mean
        );
    }
    println!(
        "\npaper: ResNet50 100ms/0% (8-512), VGG16 215ms/+59% (16-256), AlexNet 77ms/+28% (16-128)"
    );
    println!("paper workload stats (Gazelle-era packing): OutCT 147K/422K/475K, Prt 50.5/595/337");
}
