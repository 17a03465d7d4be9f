//! The Cheetah accelerator architecture (Fig. 9): output-stationary
//! ciphertext Processing Engines (PEs) built from partial-processing
//! Lanes.
//!
//! Each Lane implements one dot-product partial: two SIMDmult units
//! (`ct[0]·w`, `ct[1]·w`), then the `HE_Rotate` datapath — Swap, INTT,
//! Decompose, a parametrizable bank of NTT units covering the `l_ct`
//! decomposition digits, key-switch SIMDmults, Compose. Lanes within a PE
//! run in lockstep (shared twiddle SRAMs); a partial reduction network of
//! SIMDadd units folds partials into the output ciphertext; PEs are
//! replicated and time-multiplexed over output ciphertexts.

use crate::dse::{KernelSelection, KernelSweep};
use crate::kernels::KernelKind;

/// Top-level accelerator configuration.
#[derive(Debug, Clone)]
pub struct AcceleratorConfig {
    /// Number of processing engines (output-ciphertext parallelism).
    pub pes: u32,
    /// Lanes per PE (partial parallelism).
    pub lanes_per_pe: u32,
    /// NTT units per lane (inter-NTT parallelism across decomposition
    /// digits, §VII-A2).
    pub ntt_units_per_lane: u32,
    /// Kernel microarchitecture sweep used to pick implementations.
    pub sweep: KernelSweep,
}

impl AcceleratorConfig {
    /// A new configuration with the default kernel sweep.
    pub fn new(pes: u32, lanes_per_pe: u32) -> Self {
        Self {
            pes,
            lanes_per_pe,
            ntt_units_per_lane: 2,
            sweep: KernelSweep::default(),
        }
    }

    /// Total lanes across all PEs.
    pub fn total_lanes(&self) -> u64 {
        self.pes as u64 * self.lanes_per_pe as u64
    }
}

/// Per-stage timing/energy/area of one Lane at a fixed polynomial degree.
#[derive(Debug, Clone)]
pub struct LaneModel {
    /// Degree the model was built for.
    pub n: usize,
    /// Kernel implementation choices.
    pub selection: KernelSelection,
    /// NTT units per lane.
    pub ntt_units: u32,
}

/// Steady-state per-partial timing decomposed by stage (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaneTiming {
    /// Input SIMDmult stage (the `HE_Mult`).
    pub mult_s: f64,
    /// Swap + Decompose + Compose (rotate machinery minus transforms).
    pub rotate_other_s: f64,
    /// INTT stage.
    pub intt_s: f64,
    /// NTT stage (`ceil(l_ct / ntt_units)` sequential rounds).
    pub ntt_s: f64,
    /// Key-switch SIMDmult stage (`2·l_ct` products over `ntt_units`).
    pub ksk_mult_s: f64,
}

impl LaneTiming {
    /// Steady-state initiation interval: the lane is a pipeline, so the
    /// per-partial rate is set by the slowest stage.
    pub fn bottleneck_s(&self) -> f64 {
        [
            self.mult_s,
            self.rotate_other_s,
            self.intt_s,
            self.ntt_s,
            self.ksk_mult_s,
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }

    /// Pipeline fill latency for the first partial (sum of stages).
    pub fn fill_s(&self) -> f64 {
        self.mult_s + self.rotate_other_s + self.intt_s + self.ntt_s + self.ksk_mult_s
    }
}

impl LaneModel {
    /// Builds the lane model by running the kernel DSE at degree `n`
    /// (pipeline-balanced selection: the lane stays NTT-bound).
    pub fn build(n: usize, ntt_units: u32, sweep: &KernelSweep) -> Self {
        Self {
            n,
            selection: KernelSelection::balanced(n, sweep),
            ntt_units: ntt_units.max(1),
        }
    }

    /// Per-stage steady-state timing for a given `l_ct`.
    pub fn timing(&self, l_ct: usize) -> LaneTiming {
        let lat = |k: KernelKind| self.selection.get(k).cost.latency_s;
        let ntt_rounds = (l_ct as u32).div_ceil(self.ntt_units) as f64;
        LaneTiming {
            mult_s: lat(KernelKind::SimdMult),
            rotate_other_s: lat(KernelKind::Swap)
                + lat(KernelKind::Decompose)
                + lat(KernelKind::Compose),
            intt_s: lat(KernelKind::Intt),
            ntt_s: ntt_rounds * lat(KernelKind::Ntt),
            ksk_mult_s: (2 * l_ct as u32).div_ceil(self.ntt_units) as f64
                * lat(KernelKind::SimdMult),
        }
    }

    /// Energy to push one partial through the lane (joules @40 nm).
    pub fn energy_per_partial_j(&self, l_ct: usize) -> f64 {
        let e = |k: KernelKind| self.selection.get(k).cost.energy_j;
        // 2 input mults + swap + intt + l_ct digit NTTs + 2 l_ct key-switch
        // mults + decompose + compose.
        2.0 * e(KernelKind::SimdMult)
            + e(KernelKind::Swap)
            + e(KernelKind::Intt)
            + l_ct as f64 * e(KernelKind::Ntt)
            + 2.0 * l_ct as f64 * e(KernelKind::SimdMult)
            + e(KernelKind::Decompose)
            + e(KernelKind::Compose)
    }

    /// Lane silicon area (mm² @40 nm), split as
    /// `(ntt_compute, ntt_sram, other_compute)`.
    pub fn area_mm2(&self) -> (f64, f64, f64) {
        let c = |k: KernelKind| self.selection.get(k).cost;
        let transforms = self.ntt_units as f64 * c(KernelKind::Ntt).compute_area_mm2
            + c(KernelKind::Intt).compute_area_mm2;
        let transform_sram = self.ntt_units as f64 * c(KernelKind::Ntt).sram_area_mm2
            + c(KernelKind::Intt).sram_area_mm2;
        let other = 2.0 * c(KernelKind::SimdMult).compute_area_mm2
            + c(KernelKind::Swap).compute_area_mm2
            + c(KernelKind::Decompose).compute_area_mm2
            + c(KernelKind::Compose).compute_area_mm2
            + c(KernelKind::SimdMult).compute_area_mm2; // key-switch mult
        (transforms, transform_sram, other)
    }

    /// SIMDadd latency (reduction network stage time).
    pub fn add_latency_s(&self) -> f64 {
        self.selection.get(KernelKind::SimdAdd).cost.latency_s
    }

    /// SIMDadd energy per invocation.
    pub fn add_energy_j(&self) -> f64 {
        self.selection.get(KernelKind::SimdAdd).cost.energy_j
    }

    /// SIMDadd area (one reduction-network node).
    pub fn add_area_mm2(&self) -> f64 {
        self.selection.get(KernelKind::SimdAdd).cost.area_mm2()
    }
}

/// PE-level SRAM sizing (bits): input CT buffer, weight buffer, output CT
/// buffer (§VII-A1: "Input CT SRAMs are provisioned with enough capacity
/// to hold all the inputs").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeSram {
    /// Input ciphertext SRAM bits.
    pub input_bits: f64,
    /// Weight SRAM bits ("a relatively small SRAM for weights").
    pub weight_bits: f64,
    /// Output ciphertext SRAM bits (double-buffered).
    pub output_bits: f64,
}

impl PeSram {
    /// Sizes the SRAMs for a maximum working set: `max_in_cts` input
    /// ciphertexts of degree `n`.
    pub fn sized_for(n: usize, max_in_cts: u64) -> Self {
        let poly_bits = (n * 64) as f64;
        Self {
            input_bits: max_in_cts as f64 * 2.0 * poly_bits,
            weight_bits: 64.0 * 1024.0 * 8.0, // 64 KiB staging
            output_bits: 2.0 * 2.0 * poly_bits,
        }
    }

    /// Total bits.
    pub fn total_bits(&self) -> f64 {
        self.input_bits + self.weight_bits + self.output_bits
    }

    /// Area in mm² @40 nm (large-array density — these are big buffers).
    pub fn area_mm2(&self) -> f64 {
        self.total_bits() * 0.25e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane() -> LaneModel {
        LaneModel::build(4096, 2, &KernelSweep::default())
    }

    #[test]
    fn ntt_is_the_lane_bottleneck() {
        // Fig. 11b's conclusion: NTT dominates lane time.
        let lane = lane();
        let t = lane.timing(3);
        assert!(
            t.ntt_s >= t.mult_s && t.ntt_s >= t.rotate_other_s,
            "NTT {:.2e} should dominate: {t:?}",
            t.ntt_s
        );
        assert_eq!(t.bottleneck_s(), t.ntt_s.max(t.ksk_mult_s));
        assert!(t.fill_s() > t.bottleneck_s());
    }

    #[test]
    fn more_ntt_units_shorten_the_ntt_stage() {
        let narrow = LaneModel::build(4096, 1, &KernelSweep::default());
        let wide = LaneModel::build(4096, 4, &KernelSweep::default());
        let l_ct = 4;
        assert!(wide.timing(l_ct).ntt_s < narrow.timing(l_ct).ntt_s);
    }

    #[test]
    fn deeper_decomposition_costs_more() {
        let lane = lane();
        assert!(lane.energy_per_partial_j(6) > lane.energy_per_partial_j(2));
        assert!(lane.timing(6).ntt_s >= lane.timing(2).ntt_s);
    }

    #[test]
    fn lane_area_is_dominated_by_transform_machinery() {
        let lane = lane();
        let (ntt_c, ntt_s, other) = lane.area_mm2();
        assert!(
            ntt_c + ntt_s > other,
            "transforms {ntt_c}+{ntt_s} vs {other}"
        );
    }

    #[test]
    fn pe_sram_scales_with_working_set() {
        let small = PeSram::sized_for(4096, 4);
        let big = PeSram::sized_for(4096, 64);
        assert!(big.input_bits > 10.0 * small.input_bits);
        assert!(big.area_mm2() > small.area_mm2());
    }

    #[test]
    fn config_total_lanes() {
        let cfg = AcceleratorConfig::new(8, 512);
        assert_eq!(cfg.total_lanes(), 4096);
    }
}
