//! The accelerator simulator (§VIII-A): maps a network workload onto an
//! [`AcceleratorConfig`], time-multiplexing output ciphertexts over PEs and
//! partials over lanes, and derives latency, energy, average power, area
//! and utilization from activity factors — the paper's methodology.

use std::collections::HashMap;

use crate::arch::{AcceleratorConfig, LaneModel, PeSram};
use crate::tech::TechNode;
use crate::workload::{LayerWork, NetworkWork};

/// Streaming-interface bandwidth (PCIe-like, GB/s) — §VII-A1.
pub const STREAM_BW_GBPS: f64 = 16.0;

/// Per-layer simulation record.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSim {
    /// Layer name.
    pub name: String,
    /// Layer latency, seconds.
    pub latency_s: f64,
    /// Layer energy, joules @40 nm.
    pub energy_j: f64,
    /// Lane utilization (0..=1).
    pub lane_utilization: f64,
    /// Streaming-I/O utilization (0..=1).
    pub io_utilization: f64,
    /// Absolute streaming-I/O time for the layer, seconds.
    pub io_s: f64,
}

/// Time attribution across the lane stages (Fig. 11b).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// NTT + INTT stage time fraction.
    pub transforms: f64,
    /// SIMDmult time fraction (input + key-switch multiplies).
    pub mult: f64,
    /// Swap/Decompose/Compose fraction.
    pub rotate_other: f64,
    /// Reduction (SIMDadd) fraction.
    pub reduction: f64,
}

/// Area attribution (Fig. 11c).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AreaBreakdown {
    /// NTT/INTT staging + twiddle SRAM inside lanes, mm².
    pub lane_sram_mm2: f64,
    /// NTT/INTT butterfly datapath, mm².
    pub ntt_compute_mm2: f64,
    /// PE-level SRAM (input/weight/output buffers), mm².
    pub pe_sram_mm2: f64,
    /// Everything else (SIMD units, reduction network, IO buffer), mm².
    pub other_compute_mm2: f64,
}

impl AreaBreakdown {
    /// Total area, mm².
    pub fn total_mm2(&self) -> f64 {
        self.lane_sram_mm2 + self.ntt_compute_mm2 + self.pe_sram_mm2 + self.other_compute_mm2
    }
}

/// Full simulation result for one configuration and workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// PEs in the configuration.
    pub pes: u32,
    /// Lanes per PE.
    pub lanes_per_pe: u32,
    /// End-to-end server-side HE latency, seconds.
    pub latency_s: f64,
    /// Total energy, joules (at the reporting node).
    pub energy_j: f64,
    /// Average power, watts (at the reporting node).
    pub power_w: f64,
    /// Total area, mm² (at the reporting node).
    pub area_mm2: f64,
    /// Area attribution (at the reporting node).
    pub area: AreaBreakdown,
    /// Runtime attribution.
    pub time: TimeBreakdown,
    /// Per-layer records.
    pub layers: Vec<LayerSim>,
    /// Mean lane utilization.
    pub mean_lane_utilization: f64,
    /// Peak streaming-I/O utilization.
    pub peak_io_utilization: f64,
    /// Network-level I/O utilization (total transfer time over total
    /// latency, transfers overlapped with compute).
    pub network_io_utilization: f64,
}

/// The simulator: caches lane models per polynomial degree.
#[derive(Debug)]
pub struct Simulator {
    config: AcceleratorConfig,
    lane_cache: HashMap<(usize, u32), LaneModel>,
}

impl Simulator {
    /// Creates a simulator for a configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        Self {
            config,
            lane_cache: HashMap::new(),
        }
    }

    /// The configuration under simulation.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    fn lane(&mut self, n: usize) -> &LaneModel {
        let key = (n, self.config.ntt_units_per_lane);
        let (ntt_units, sweep) = (self.config.ntt_units_per_lane, self.config.sweep.clone());
        self.lane_cache
            .entry(key)
            .or_insert_with(|| LaneModel::build(n, ntt_units, &sweep))
    }

    /// Simulates one layer.
    fn simulate_layer(&mut self, work: &LayerWork) -> (LayerSim, TimeBreakdown, f64) {
        let pes = self.config.pes as u64;
        let lanes = self.config.lanes_per_pe as u64;
        let lane = self.lane(work.n).clone();
        let timing = lane.timing(work.l_ct);
        let interval = timing.bottleneck_s();

        // Output-stationary mapping: each PE owns one output CT at a time;
        // its lanes chew through that CT's partials. Output CTs stream
        // back-to-back through the lane pipeline (the output SRAM is
        // double-buffered), so the pipeline fill is paid once per layer,
        // not once per output ciphertext.
        let partials = work.partials_per_out_ct.ceil() as u64;
        let waves_per_out_ct = partials.div_ceil(lanes);
        let reduction_s = (lanes as f64).log2().ceil().max(1.0) * lane.add_latency_s();
        let pe_rounds = work.out_cts.div_ceil(pes);
        let latency_s =
            timing.fill_s() + (pe_rounds * waves_per_out_ct) as f64 * interval + reduction_s;

        // Energy: real work only (activity factors), plus reduction adds.
        let total_partials = work.total_partials();
        let adds = total_partials; // one reduction add per partial
        let energy_j =
            total_partials * lane.energy_per_partial_j(work.l_ct) + adds * lane.add_energy_j();

        // Utilizations.
        let busy = total_partials * interval;
        let capacity = (pes * lanes) as f64 * latency_s;
        let lane_utilization = (busy / capacity).min(1.0);
        // Streaming traffic: input + output ciphertexts (2 polynomials of
        // n 8-byte words each) plus raw quantized weights — the
        // evaluation-domain weight plaintexts are expanded on-chip, not
        // streamed at n words each. Transfers overlap with compute across
        // the inference, so utilization is meaningful at network level.
        let ct_bytes = 2.0 * work.out_cts as f64 * 2.0 * work.n as f64 * 8.0;
        let io_s = (ct_bytes + work.weight_bytes) / (STREAM_BW_GBPS * 1e9);
        let io_utilization = (io_s / latency_s).min(1.0);

        // Time attribution within the lane pipeline (by stage weight).
        let stage_total = timing.fill_s() + reduction_s;
        let tb = TimeBreakdown {
            transforms: (timing.ntt_s + timing.intt_s) / stage_total,
            mult: (timing.mult_s + timing.ksk_mult_s) / stage_total,
            rotate_other: timing.rotate_other_s / stage_total,
            reduction: reduction_s / stage_total,
        };
        (
            LayerSim {
                name: work.name.clone(),
                latency_s,
                energy_j,
                lane_utilization,
                io_utilization,
                io_s,
            },
            tb,
            latency_s,
        )
    }

    /// Simulates a full network, reporting at the given technology node.
    pub fn simulate(&mut self, work: &NetworkWork, node: TechNode) -> SimResult {
        let mut layers = Vec::with_capacity(work.layers.len());
        let mut total_latency = 0.0;
        let mut total_energy_40 = 0.0;
        let mut tb_acc = TimeBreakdown::default();
        for lw in &work.layers {
            let (sim, tb, lat) = self.simulate_layer(lw);
            total_latency += lat;
            total_energy_40 += sim.energy_j;
            // latency-weighted stage attribution
            tb_acc.transforms += tb.transforms * lat;
            tb_acc.mult += tb.mult * lat;
            tb_acc.rotate_other += tb.rotate_other * lat;
            tb_acc.reduction += tb.reduction * lat;
            layers.push(sim);
        }
        let t = total_latency.max(f64::MIN_POSITIVE);
        let time = TimeBreakdown {
            transforms: tb_acc.transforms / t,
            mult: tb_acc.mult / t,
            rotate_other: tb_acc.rotate_other / t,
            reduction: tb_acc.reduction / t,
        };

        // Area: lanes sized for the largest degree used.
        let max_n = work.layers.iter().map(|l| l.n).max().unwrap_or(4096);
        let max_in_cts = work
            .layers
            .iter()
            .map(|l| {
                // input working set: roughly out_cts * partials scaled by n
                (l.total_partials() / l.partials_per_out_ct.max(1.0)).ceil() as u64
            })
            .max()
            .unwrap_or(4)
            .max(4);
        let lane = self.lane(max_n).clone();
        let (ntt_c, ntt_s, other_c) = lane.area_mm2();
        let pes = self.config.pes as f64;
        let lanes = self.config.lanes_per_pe as f64;
        let pe_sram = PeSram::sized_for(max_n, max_in_cts);
        let reduction_area = lanes * lane.add_area_mm2();
        let io_buffer_mm2 = 2.0 * max_n as f64 * 64.0 * 0.25e-6 * 8.0;

        let area40 = AreaBreakdown {
            lane_sram_mm2: pes * lanes * ntt_s,
            ntt_compute_mm2: pes * lanes * ntt_c,
            pe_sram_mm2: pes * pe_sram.area_mm2(),
            other_compute_mm2: pes * (lanes * other_c + reduction_area) + io_buffer_mm2,
        };
        // Leakage across the full die for the whole run.
        let leakage_j = area40.total_mm2() * 0.015 * total_latency;
        let energy40 = total_energy_40 + leakage_j;

        let area = AreaBreakdown {
            lane_sram_mm2: node.scale_area(area40.lane_sram_mm2),
            ntt_compute_mm2: node.scale_area(area40.ntt_compute_mm2),
            pe_sram_mm2: node.scale_area(area40.pe_sram_mm2),
            other_compute_mm2: node.scale_area(area40.other_compute_mm2),
        };
        let energy_j = node.scale_power(energy40);
        let mean_lane_utilization =
            layers.iter().map(|l| l.lane_utilization).sum::<f64>() / layers.len().max(1) as f64;
        let peak_io_utilization = layers.iter().map(|l| l.io_utilization).fold(0.0, f64::max);
        let network_io_utilization = (layers.iter().map(|l| l.io_s).sum::<f64>() / t).min(1.0);
        SimResult {
            pes: self.config.pes,
            lanes_per_pe: self.config.lanes_per_pe,
            latency_s: total_latency,
            energy_j,
            power_w: energy_j / t,
            area_mm2: area.total_mm2(),
            area,
            time,
            layers,
            mean_lane_utilization,
            peak_io_utilization,
            network_io_utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptune::{tune_network, NoiseRegime, TuneSpace};
    use crate::tech::{NODE_40NM, NODE_5NM};
    use cheetah_core::{QuantSpec, Schedule};
    use cheetah_nn::models;

    fn lenet5_work() -> NetworkWork {
        let net = models::lenet5();
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
    fn more_lanes_reduce_latency() {
        let work = lenet5_work();
        let small = Simulator::new(AcceleratorConfig::new(2, 8)).simulate(&work, NODE_40NM);
        let big = Simulator::new(AcceleratorConfig::new(2, 128)).simulate(&work, NODE_40NM);
        assert!(big.latency_s < small.latency_s);
        assert!(big.area_mm2 > small.area_mm2);
    }

    #[test]
    fn more_pes_reduce_latency_when_many_out_cts() {
        let work = lenet5_work();
        let few = Simulator::new(AcceleratorConfig::new(1, 32)).simulate(&work, NODE_40NM);
        let many = Simulator::new(AcceleratorConfig::new(8, 32)).simulate(&work, NODE_40NM);
        assert!(many.latency_s <= few.latency_s);
    }

    #[test]
    fn tech_scaling_shrinks_power_and_area() {
        let work = lenet5_work();
        let at40 = Simulator::new(AcceleratorConfig::new(4, 64)).simulate(&work, NODE_40NM);
        let at5 = Simulator::new(AcceleratorConfig::new(4, 64)).simulate(&work, NODE_5NM);
        assert!(
            (at5.latency_s - at40.latency_s).abs() < 1e-12,
            "latency is node-independent here"
        );
        assert!((at5.power_w / at40.power_w - NODE_5NM.power_factor).abs() < 0.01);
        assert!((at5.area_mm2 / at40.area_mm2 - NODE_5NM.area_factor).abs() < 0.01);
    }

    #[test]
    fn compute_bound_not_io_bound() {
        // §VIII-B3: "even in the most parallel design point considered,
        // the accelerator is compute bound (IO utilization is only 12%)".
        // The claim holds for a workload matched to the machine (the paper
        // evaluates ResNet50 on its own design) — a tiny model on a huge
        // accelerator is legitimately I/O-bound.
        let net = models::alexnet();
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
        let work = NetworkWork::from_tuned(&net.name, &tuned);
        let r = Simulator::new(AcceleratorConfig::new(8, 256)).simulate(&work, NODE_40NM);
        assert!(
            r.network_io_utilization < 0.8,
            "network io util {:.2}",
            r.network_io_utilization
        );
        assert!(r.mean_lane_utilization > 0.05);
    }

    #[test]
    fn transforms_dominate_runtime() {
        // Fig. 11b: NTT and reduction dominate HE accelerator computation.
        let work = lenet5_work();
        let r = Simulator::new(AcceleratorConfig::new(4, 64)).simulate(&work, NODE_40NM);
        assert!(
            r.time.transforms > r.time.rotate_other,
            "transforms {:.2} vs rotate-other {:.2}",
            r.time.transforms,
            r.time.rotate_other
        );
        let total = r.time.transforms + r.time.mult + r.time.rotate_other + r.time.reduction;
        assert!((total - 1.0).abs() < 0.05, "fractions sum to ~1: {total}");
    }

    #[test]
    fn per_layer_records_align_with_workload() {
        let work = lenet5_work();
        let r = Simulator::new(AcceleratorConfig::new(2, 16)).simulate(&work, NODE_40NM);
        assert_eq!(r.layers.len(), work.layers.len());
        let sum: f64 = r.layers.iter().map(|l| l.latency_s).sum();
        assert!((sum - r.latency_s).abs() < 1e-9);
        assert!(r.mean_lane_utilization > 0.0 && r.mean_lane_utilization <= 1.0);
    }
}
