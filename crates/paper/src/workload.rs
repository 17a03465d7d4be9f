//! Mapping DNN layers onto accelerator work units (§VIII-A).
//!
//! "To estimate performance and power for an input DNN, each layer is
//! represented as the number of input/output ciphertexts and partials per
//! output ciphertext." This module derives exactly that representation
//! from the HE-PTune per-layer configurations.

use cheetah_core::Schedule;
use cheetah_nn::LinearLayer;

use crate::ptune::perf::layer_ops;
use crate::ptune::DesignPoint;

/// One layer's accelerator workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWork {
    /// Layer name.
    pub name: String,
    /// Polynomial degree for this layer (from HE-PTune).
    pub n: usize,
    /// Ciphertext decomposition levels (`l_ct`).
    pub l_ct: usize,
    /// Plaintext decomposition levels (`l_pt`).
    pub l_pt: usize,
    /// Output-neuron ciphertexts to produce.
    pub out_cts: u64,
    /// Partial products per output ciphertext (each is one
    /// `HE_Mult` + `HE_Rotate` through a Lane).
    pub partials_per_out_ct: f64,
    /// Raw quantized weight traffic for the layer, bytes (weights are
    /// expanded to evaluation-domain plaintexts on-chip).
    pub weight_bytes: f64,
}

impl LayerWork {
    /// Total partials in the layer.
    pub fn total_partials(&self) -> f64 {
        self.out_cts as f64 * self.partials_per_out_ct
    }
}

/// A whole network's workload.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkWork {
    /// Model name.
    pub model: String,
    /// Per-layer work, in execution order.
    pub layers: Vec<LayerWork>,
}

impl NetworkWork {
    /// Builds the workload from per-layer tuned configurations.
    pub fn from_tuned(model: &str, tuned: &[(LinearLayer, DesignPoint)]) -> Self {
        let layers = tuned
            .iter()
            .map(|(layer, point)| {
                let ops = layer_ops(layer, point.n, point.l_pt(), Schedule::PartialAligned);
                let out_cts = (layer.output_len() as u64).div_ceil(point.n as u64).max(1);
                let weight_count = match layer {
                    LinearLayer::Conv(c) => c.co * c.ci * c.fw * c.fw,
                    LinearLayer::Fc(f) => f.ni * f.no,
                };
                LayerWork {
                    name: layer.name().to_owned(),
                    n: point.n,
                    l_ct: point.l_ct(),
                    l_pt: point.l_pt(),
                    out_cts,
                    partials_per_out_ct: (ops.he_mult / out_cts as f64).max(1.0),
                    weight_bytes: 2.0 * weight_count as f64,
                }
            })
            .collect();
        Self {
            model: model.to_owned(),
            layers,
        }
    }

    /// Total output ciphertexts across the network (Table VI's "Out CT"
    /// column, reported in thousands there).
    pub fn total_out_cts(&self) -> u64 {
        self.layers.iter().map(|l| l.out_cts).sum()
    }

    /// Mean partials per output ciphertext (Table VI's "Prt µ").
    pub fn mean_partials_per_out_ct(&self) -> f64 {
        let total: f64 = self.layers.iter().map(LayerWork::total_partials).sum();
        total / self.total_out_cts().max(1) as f64
    }

    /// Total partials across the network.
    pub fn total_partials(&self) -> f64 {
        self.layers.iter().map(LayerWork::total_partials).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptune::{tune_network, NoiseRegime, TuneSpace};
    use cheetah_core::QuantSpec;
    use cheetah_nn::models;

    fn workload(net: cheetah_nn::Network) -> NetworkWork {
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
    fn lenet5_workload_shapes() {
        let w = workload(models::lenet5());
        assert_eq!(w.layers.len(), 4);
        assert!(w.total_out_cts() >= 4);
        assert!(w.mean_partials_per_out_ct() >= 1.0);
    }

    #[test]
    fn resnet50_workload_is_substantial() {
        let w = workload(models::resnet50());
        assert_eq!(w.layers.len(), 54);
        // Hundreds+ of output CTs and tens of partials each (Table VI
        // reports 147K out-CTs at Gazelle-era packing; our tuned configs
        // pack more per ciphertext, so the count is lower but still large).
        assert!(w.total_out_cts() > 100, "out cts {}", w.total_out_cts());
        assert!(w.mean_partials_per_out_ct() > 10.0);
    }

    #[test]
    fn vgg16_heavier_than_resnet50_per_out_ct() {
        // The Table VI observation: VGG16 has far more partials per output
        // ciphertext than ResNet50 (595 vs 50.5 in the paper).
        let vgg = workload(models::vgg16());
        let res = workload(models::resnet50());
        assert!(
            vgg.mean_partials_per_out_ct() > res.mean_partials_per_out_ct(),
            "VGG {:.1} vs ResNet {:.1}",
            vgg.mean_partials_per_out_ct(),
            res.mean_partials_per_out_ct()
        );
    }
}
