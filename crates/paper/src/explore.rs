//! Full accelerator design-space exploration (§VIII-B3, Fig. 11):
//! sweep PEs and Lanes, simulate the workload at each point, extract the
//! power-latency Pareto frontier, and pick the design meeting a target
//! latency at minimum power.

use crate::arch::AcceleratorConfig;
use crate::pareto::pareto_front;
use crate::sim::{SimResult, Simulator};
use crate::tech::TechNode;
use crate::workload::NetworkWork;

/// The PE/Lane sweep ranges (§VIII-A: "PEs per accelerator are swept from
/// 2-1024 and lanes per PE from 4-8192").
#[derive(Debug, Clone)]
pub struct ArchSweep {
    /// PE counts to try.
    pub pes: Vec<u32>,
    /// Lanes-per-PE counts to try.
    pub lanes: Vec<u32>,
    /// Skip configurations whose total lane count exceeds this (keeps the
    /// sweep within simulable/affordable bounds).
    pub max_total_lanes: u64,
}

impl Default for ArchSweep {
    fn default() -> Self {
        Self {
            pes: vec![2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
            lanes: vec![4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192],
            max_total_lanes: 1 << 16,
        }
    }
}

impl ArchSweep {
    /// A reduced sweep for tests.
    pub fn small() -> Self {
        Self {
            pes: vec![2, 8, 32],
            lanes: vec![8, 64, 512],
            max_total_lanes: 1 << 15,
        }
    }
}

/// Result of the architecture DSE.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Every simulated point.
    pub points: Vec<SimResult>,
    /// Power-latency Pareto frontier (sorted by latency).
    pub frontier: Vec<SimResult>,
}

impl ExploreOutcome {
    /// The minimum-power frontier design with latency ≤ `target_s`
    /// (the paper's "PT-ResNet50" selection at 100 ms), if any.
    pub fn design_for_target(&self, target_s: f64) -> Option<&SimResult> {
        self.frontier
            .iter()
            .filter(|r| r.latency_s <= target_s)
            .min_by(|a, b| a.power_w.total_cmp(&b.power_w))
    }

    /// The minimum-latency design regardless of power.
    pub fn fastest(&self) -> Option<&SimResult> {
        self.frontier.first()
    }
}

/// Runs the sweep for one workload at one technology node.
pub fn explore(work: &NetworkWork, sweep: &ArchSweep, node: TechNode) -> ExploreOutcome {
    let mut points = Vec::new();
    for &pes in &sweep.pes {
        for &lanes in &sweep.lanes {
            let cfg = AcceleratorConfig::new(pes, lanes);
            if cfg.total_lanes() > sweep.max_total_lanes {
                continue;
            }
            points.push(Simulator::new(cfg).simulate(work, node));
        }
    }
    let frontier = pareto_front(&points, |r| (r.latency_s, r.power_w));
    ExploreOutcome { points, frontier }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptune::{tune_network, NoiseRegime, TuneSpace};
    use crate::tech::NODE_5NM;
    use cheetah_core::{QuantSpec, Schedule};
    use cheetah_nn::models;

    fn work(net: cheetah_nn::Network) -> NetworkWork {
        let quant = QuantSpec::default();
        let layers = net.linear_layers();
        let t_bits: Vec<u32> = layers
            .iter()
            .map(|l| quant.statistical_plain_bits(l))
            .collect();
        let tuned = tune_network(
            &layers,
            &t_bits,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &TuneSpace::default(),
        )
        .unwrap();
        NetworkWork::from_tuned(&net.name, &tuned)
    }

    #[test]
    fn frontier_trades_power_for_latency() {
        let outcome = explore(&work(models::lenet5()), &ArchSweep::small(), NODE_5NM);
        assert!(!outcome.frontier.is_empty());
        assert!(outcome.points.len() > outcome.frontier.len());
        for w in outcome.frontier.windows(2) {
            assert!(w[0].latency_s <= w[1].latency_s);
            assert!(w[0].power_w >= w[1].power_w);
        }
    }

    #[test]
    fn target_selection_respects_latency() {
        let outcome = explore(&work(models::lenet5()), &ArchSweep::small(), NODE_5NM);
        let fastest = outcome.fastest().unwrap().latency_s;
        let design = outcome.design_for_target(fastest * 2.0).unwrap();
        assert!(design.latency_s <= fastest * 2.0);
        // A looser target never costs more power.
        let tight = outcome.design_for_target(fastest * 1.01).unwrap();
        assert!(design.power_w <= tight.power_w + 1e-12);
    }
}
