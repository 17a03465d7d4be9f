//! Fixed-point quantization settings shared by the models and the tuner.
//!
//! HE inference computes exactly over integers mod `t`; the plaintext
//! modulus must be wide enough that no layer output overflows. "Setting `t`
//! requires profiling the application to ensure enough bits are used for
//! correctness and no more, as over provisioning causes unnecessary
//! slowdown" (§III-B). [`QuantSpec::required_plain_bits`] is that profile:
//! weight bits + activation bits + accumulation depth + sign.

use cheetah_nn::LinearLayer;

/// Bit widths for weights and activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantSpec {
    /// Magnitude bits per weight (sign handled separately).
    pub weight_bits: u32,
    /// Magnitude bits per activation.
    pub activation_bits: u32,
}

impl Default for QuantSpec {
    fn default() -> Self {
        // 5+5-bit fixed point: enough for the demonstration networks and
        // puts ResNet50's widest layer at a ~24-bit t, in the regime the
        // paper's q ≈ 60-bit parameters target.
        Self {
            weight_bits: 5,
            activation_bits: 5,
        }
    }
}

impl QuantSpec {
    /// Minimum plaintext-modulus bits for an overflow-free evaluation of
    /// `layer`.
    pub fn required_plain_bits(&self, layer: &LinearLayer) -> u32 {
        layer.required_plain_bits(self.weight_bits, self.activation_bits)
    }

    /// The worst (widest) requirement across a set of layers — what a
    /// single global parameter set (the Gazelle baseline) must provision.
    pub fn required_plain_bits_network(&self, layers: &[LinearLayer]) -> u32 {
        layers
            .iter()
            .map(|l| self.required_plain_bits(l))
            .max()
            .unwrap_or(self.weight_bits + self.activation_bits + 1)
    }

    /// Statistically profiled plaintext-modulus requirement: real (and our
    /// randomly drawn) weights make the dot product concentrate around
    /// `√(dot_len)·w·a` rather than the worst case `dot_len·w·a`. This is
    /// the "profiling the application" sizing of §III-B that the paper's
    /// systems rely on; 3 extra bits cover sign and tail.
    pub fn statistical_plain_bits(&self, layer: &LinearLayer) -> u32 {
        let dot = layer.dot_length() as f64;
        let spread = dot.sqrt().log2().ceil() as u32;
        self.weight_bits + self.activation_bits + spread + 3
    }

    /// Network-wide statistical requirement (max over layers).
    pub fn statistical_plain_bits_network(&self, layers: &[LinearLayer]) -> u32 {
        layers
            .iter()
            .map(|l| self.statistical_plain_bits(l))
            .max()
            .unwrap_or(self.weight_bits + self.activation_bits + 3)
    }

    /// Largest weight magnitude representable.
    pub fn weight_bound(&self) -> i64 {
        (1i64 << self.weight_bits) - 1
    }

    /// Largest activation magnitude representable.
    pub fn activation_bound(&self) -> i64 {
        (1i64 << self.activation_bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_nn::inference::round_weight_to_pow2;
    use cheetah_nn::models;

    #[test]
    fn resnet50_precision_requirement_is_plausible() {
        let q = QuantSpec::default();
        let layers = models::resnet50().linear_layers();
        let bits = q.required_plain_bits_network(&layers);
        // 5 + 5 + ceil(log2(4608)) + 1 = 24
        assert_eq!(bits, 24);
    }

    #[test]
    fn per_layer_requirements_vary() {
        let q = QuantSpec::default();
        let layers = models::resnet50().linear_layers();
        let reqs: Vec<u32> = layers.iter().map(|l| q.required_plain_bits(l)).collect();
        let min = *reqs.iter().min().unwrap();
        let max = *reqs.iter().max().unwrap();
        assert!(
            max > min + 3,
            "per-layer spread ({min}..{max}) is what makes per-layer tuning pay"
        );
    }

    #[test]
    fn bounds_match_bits() {
        let q = QuantSpec {
            weight_bits: 4,
            activation_bits: 3,
        };
        assert_eq!(q.weight_bound(), 15);
        assert_eq!(q.activation_bound(), 7);
    }

    #[test]
    fn pow2_rounding_is_nearest_and_bounded() {
        assert_eq!(round_weight_to_pow2(0, 4), 0);
        assert_eq!(round_weight_to_pow2(1, 4), 1);
        assert_eq!(
            round_weight_to_pow2(3, 4),
            2,
            "equidistant ties keep the smaller magnitude"
        );
        assert_eq!(
            round_weight_to_pow2(6, 4),
            4,
            "equidistant ties keep the smaller magnitude"
        );
        assert_eq!(round_weight_to_pow2(7, 4), 8);
        assert_eq!(round_weight_to_pow2(-5, 4), -4);
        assert_eq!(round_weight_to_pow2(100, 4), 16, "clamped to 2^4");
        assert_eq!(round_weight_to_pow2(-100, 3), -8);
    }
}
