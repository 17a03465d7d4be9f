//! Accelerator generality study (§VIII-B4, Table VI): run AlexNet and
//! VGG16 on the accelerator sized for ResNet50 and quantify the slowdown
//! relative to each model's own ideal design.

use crate::arch::AcceleratorConfig;
use crate::explore::{explore, ArchSweep};
use crate::sim::Simulator;
use crate::tech::TechNode;
use crate::workload::NetworkWork;

/// One row of Table VI.
#[derive(Debug, Clone)]
pub struct GeneralityRow {
    /// Model name.
    pub model: String,
    /// Latency on the shared (ResNet50-tuned) design, ms.
    pub latency_ms: f64,
    /// Latency increase vs the model's own ideal design, percent.
    pub increase_pct: f64,
    /// The model's ideal `PEs-Lanes` from its own DSE.
    pub ideal_pes_lanes: (u32, u32),
    /// Total output ciphertexts (thousands) — "Out CT µ (K)".
    pub out_ct_thousands: f64,
    /// Mean partials per output ciphertext — "Prt µ".
    pub partials_mean: f64,
}

/// The full Table VI: the shared design plus one row per model.
#[derive(Debug, Clone)]
pub struct GeneralityStudy {
    /// The shared configuration (ResNet50's target design).
    pub shared: (u32, u32),
    /// Rows, reference model first.
    pub rows: Vec<GeneralityRow>,
}

/// Runs the study.
///
/// `reference` is the workload the shared accelerator is tuned for
/// (ResNet50 in the paper); `others` run on that design. `target_s` is the
/// reference latency target used to pick the shared design (100 ms).
pub fn generality_study(
    reference: &NetworkWork,
    others: &[NetworkWork],
    sweep: &ArchSweep,
    node: TechNode,
    target_s: f64,
) -> GeneralityStudy {
    let ref_outcome = explore(reference, sweep, node);
    let shared_design = ref_outcome
        .design_for_target(target_s)
        .or_else(|| ref_outcome.fastest())
        .expect("reference DSE produced no designs");
    let shared = (shared_design.pes, shared_design.lanes_per_pe);

    let mut rows = vec![GeneralityRow {
        model: reference.model.clone(),
        latency_ms: shared_design.latency_s * 1e3,
        increase_pct: 0.0,
        ideal_pes_lanes: shared,
        out_ct_thousands: reference.total_out_cts() as f64 / 1e3,
        partials_mean: reference.mean_partials_per_out_ct(),
    }];

    for other in others {
        let on_shared =
            Simulator::new(AcceleratorConfig::new(shared.0, shared.1)).simulate(other, node);
        // The model's own ideal design at the same resource class: the
        // minimum-latency frontier design using no more power than the
        // model actually draws on the shared accelerator. Since the shared
        // configuration itself is in the sweep, the ideal can only be
        // faster — the increase is the multiplexing/dimension-mismatch
        // penalty of §VIII-B4.
        let own = explore(other, sweep, node);
        let ideal = own
            .frontier
            .iter()
            .filter(|r| r.power_w <= on_shared.power_w * 1.001)
            .min_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
            .or_else(|| own.fastest())
            .expect("own DSE produced no designs");
        let increase_pct = (on_shared.latency_s / ideal.latency_s - 1.0) * 100.0;
        rows.push(GeneralityRow {
            model: other.model.clone(),
            latency_ms: on_shared.latency_s * 1e3,
            increase_pct,
            ideal_pes_lanes: (ideal.pes, ideal.lanes_per_pe),
            out_ct_thousands: other.total_out_cts() as f64 / 1e3,
            partials_mean: other.mean_partials_per_out_ct(),
        });
    }
    GeneralityStudy { shared, rows }
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
    fn foreign_models_pay_a_penalty() {
        // Table VI's qualitative claim: models running on another model's
        // accelerator are no faster than on their own ideal design.
        let reference = work(models::lenet5());
        let other = work(models::lenet300());
        let study = generality_study(
            &reference,
            &[other],
            &ArchSweep::small(),
            NODE_5NM,
            f64::INFINITY,
        );
        assert_eq!(study.rows.len(), 2);
        assert_eq!(study.rows[0].increase_pct, 0.0);
        assert!(
            study.rows[1].increase_pct >= -1e-6,
            "penalty {:.1}% must be non-negative",
            study.rows[1].increase_pct
        );
        assert!(study.rows[1].latency_ms > 0.0);
    }
}
